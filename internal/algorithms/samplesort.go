package algorithms

import (
	"slices"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// SampleSort is the appendix's samplesort: over-sampling pivot selection,
// redistribution into p buckets, local sort, and a final redistribution into
// the output array. It runs in 5 phases whp. The sorted result appears in
// the shared array "sort.out".
type SampleSort struct {
	N int
	// C is the over-sampling factor: each processor draws C*ceil(log2 n)
	// random samples. Zero means 2.
	C int
	// Input returns processor id's block of the distributed input.
	Input func(id, p int) []int64
	// Skew, when non-nil, receives the measured load-balance quantities the
	// paper's "QSM estimate" lines are computed from.
	Skew *SortSkew
}

// SortSkew records per-processor load-balance measurements of one run.
type SortSkew struct {
	// BucketSize[i] is the number of elements sorted by processor i (its
	// bucket size); B = max over i.
	BucketSize []int64
	// RemoteInBucket[i] is how many of processor i's bucket elements
	// arrived from other processors; r = max_i RemoteInBucket[i]/BucketSize[i].
	RemoteInBucket []int64
	// OutRemote[i] is how many words of processor i's sorted output landed
	// outside its own partition of the output array.
	OutRemote []int64
}

// OutW returns the largest per-processor remote output volume (QSM charges
// the per-processor maximum m_rw, not the aggregate).
func (s *SortSkew) OutW() int64 {
	var w int64
	for _, v := range s.OutRemote {
		if v > w {
			w = v
		}
	}
	return w
}

// B returns the largest bucket size.
func (s *SortSkew) B() int64 {
	var b int64
	for _, v := range s.BucketSize {
		if v > b {
			b = v
		}
	}
	return b
}

// R returns the largest remote fraction of any bucket.
func (s *SortSkew) R() float64 {
	var r float64
	for i, sz := range s.BucketSize {
		if sz == 0 {
			continue
		}
		if f := float64(s.RemoteInBucket[i]) / float64(sz); f > r {
			r = f
		}
	}
	return r
}

// Out returns the name of the result array.
func (SampleSort) Out() string { return "sort.out" }

// Program returns the QSM program.
func (a SampleSort) Program() core.Program {
	c := a.C
	if c == 0 {
		c = 2
	}
	return func(ctx core.Ctx) {
		p, id := ctx.P(), ctx.ID()
		n := a.N
		clogn := c * ceilLog2(n)
		lo, hi := workload.Partition(n, p, id)
		local := append([]int64(nil), a.Input(id, p)...)
		if len(local) != hi-lo {
			panic("algorithms: input size does not match partition")
		}

		row := p * clogn // samples per broadcast row
		out := ctx.RegisterSpec("sort.out", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		samples := ctx.RegisterSpec("sort.samples", p*row, core.LayoutSpec{Kind: core.LayoutBlocked})
		// desc row b holds, for bucket b: (staged offset, count) per source.
		desc := ctx.RegisterSpec("sort.desc", p*2*p, core.LayoutSpec{Kind: core.LayoutBlocked})
		staged := ctx.RegisterSpec("sort.staged", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		sizes := ctx.RegisterSpec("sort.sizes", p*p, core.LayoutSpec{Kind: core.LayoutBlocked})
		ctx.Sync() // registration phase

		// Major step 1: each processor picks c*log n random samples (with
		// replacement) and broadcasts them to every processor's row.
		mySamples := make([]int64, clogn)
		for i := range mySamples {
			if len(local) > 0 {
				mySamples[i] = local[ctx.Rand().Intn(len(local))]
			}
		}
		var bidx []int
		var bvals []int64
		for r := 0; r < p; r++ {
			base := r*row + id*clogn
			if r == id {
				ctx.WriteLocal(samples, base, mySamples)
				continue
			}
			for k := 0; k < clogn; k++ {
				bidx = append(bidx, base+k)
				bvals = append(bvals, mySamples[k])
			}
		}
		ctx.PutIndexed(samples, bidx, bvals)
		ctx.Compute(cpu.BlockCopy(p * clogn))
		ctx.Sync() // phase 1: samples broadcast

		// Sort all cp*log n samples and pick every (c log n)-th as a pivot.
		all := make([]int64, row)
		ctx.ReadLocal(samples, id*row, all)
		slices.Sort(all)
		ctx.Compute(cpu.BlockQuickSort(row))
		pivots := make([]int64, p-1)
		for k := 1; k < p; k++ {
			pivots[k-1] = all[k*clogn]
		}

		// Major step 2: bucketize local elements (binary search over the
		// pivots), stage them contiguously per bucket, and post descriptors
		// to each bucket's owner. An element's bucket is the number of
		// pivots < v, so ties stay with the earlier bucket.
		bucketIdx := make([]int32, len(local))
		counts := make([]int64, p)
		for i, v := range local {
			b, _ := slices.BinarySearch(pivots, v)
			bucketIdx[i] = int32(b)
			counts[b]++
		}
		offs := make([]int64, p)
		var acc int64
		for b := 0; b < p; b++ {
			offs[b] = acc
			acc += counts[b]
		}
		stagedLocal := make([]int64, len(local))
		cursor := append([]int64(nil), offs...)
		for i, v := range local {
			b := bucketIdx[i]
			stagedLocal[cursor[b]] = v
			cursor[b]++
		}
		if len(stagedLocal) > 0 {
			ctx.WriteLocal(staged, lo, stagedLocal)
		}
		var didx []int
		var dvals []int64
		for b := 0; b < p; b++ {
			base := b*2*p + 2*id
			off, cnt := int64(lo)+offs[b], counts[b]
			if b == id {
				ctx.WriteLocal(desc, base, []int64{off, cnt})
				continue
			}
			didx = append(didx, base, base+1)
			dvals = append(dvals, off, cnt)
		}
		ctx.PutIndexed(desc, didx, dvals)
		ctx.Compute(cpu.BlockBucketize(len(local), p))
		ctx.Sync() // phase 2: descriptors posted

		// Gather this processor's bucket from every source's staged region,
		// and broadcast the bucket size for output placement.
		myDesc := make([]int64, 2*p)
		ctx.ReadLocal(desc, id*2*p, myDesc)
		var total int64
		for src := 0; src < p; src++ {
			total += myDesc[2*src+1]
		}
		bucket := make([]int64, total)
		var remote int64
		pos := int64(0)
		for src := 0; src < p; src++ {
			off, cnt := int(myDesc[2*src]), myDesc[2*src+1]
			if cnt == 0 {
				continue
			}
			dst := bucket[pos : pos+cnt]
			if src == id {
				ctx.ReadLocal(staged, off, dst)
			} else {
				ctx.Get(staged, off, dst)
				remote += cnt
			}
			pos += cnt
		}
		var sidx []int
		var svals []int64
		for r := 0; r < p; r++ {
			if r == id {
				ctx.WriteLocal(sizes, r*p+id, []int64{total})
				continue
			}
			sidx = append(sidx, r*p+id)
			svals = append(svals, total)
		}
		ctx.PutIndexed(sizes, sidx, svals)
		ctx.Sync() // phase 3: buckets gathered

		// Major step 3: sort the bucket locally.
		sortInt64(bucket)
		ctx.Compute(cpu.BlockQuickSort(int(total)))

		// Major step 4: write the sorted bucket to its output position.
		sizesRow := make([]int64, p)
		ctx.ReadLocal(sizes, id*p, sizesRow)
		var gOff int64
		for r := 0; r < id; r++ {
			gOff += sizesRow[r]
		}
		if total > 0 {
			ctx.Put(out, int(gOff), bucket)
		}
		ctx.Compute(cpu.BlockCopy(int(total)))
		ctx.Sync() // phase 4: output written

		if a.Skew != nil {
			a.Skew.BucketSize[id] = total
			a.Skew.RemoteInBucket[id] = remote
			oLo, oHi := workload.Partition(n, p, id)
			overlap := min(int64(oHi), gOff+total) - max(int64(oLo), gOff)
			if overlap < 0 {
				overlap = 0
			}
			a.Skew.OutRemote[id] = total - overlap
		}
	}
}

// NewSortSkew allocates skew storage for p processors.
func NewSortSkew(p int) *SortSkew {
	return &SortSkew{
		BucketSize:     make([]int64, p),
		RemoteInBucket: make([]int64, p),
		OutRemote:      make([]int64, p),
	}
}
