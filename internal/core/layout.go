package core

import "repro/internal/stats"

// Layout is a resolved array layout: the mapping from word indices to
// owning processors, shared by all backends.
type Layout struct {
	Kind  LayoutKind
	P     int
	N     int
	Block int    // words per block for LayoutBlocked
	Owner int    // for LayoutSingle
	HSeed uint64 // for LayoutHashed
}

// ResolveLayout turns a LayoutSpec into a concrete Layout for an n-word
// array on p processors. def replaces LayoutDefault; hseed salts the hashed
// mapping.
func ResolveLayout(spec LayoutSpec, n, p int, def LayoutKind, hseed uint64) Layout {
	kind := spec.Kind
	if kind == LayoutDefault {
		kind = def
	}
	if kind == LayoutDefault {
		kind = LayoutBlocked
	}
	block := (n + p - 1) / p
	if block == 0 {
		block = 1
	}
	return Layout{Kind: kind, P: p, N: n, Block: block, Owner: spec.Owner, HSeed: hseed}
}

// OwnerOf returns the processor owning word i.
func (l Layout) OwnerOf(i int) int {
	switch l.Kind {
	case LayoutCyclic:
		return i % l.P
	case LayoutHashed:
		return int(stats.Mix64(l.HSeed, uint64(i)) % uint64(l.P))
	case LayoutSingle:
		return l.Owner
	default:
		o := i / l.Block
		if o >= l.P {
			o = l.P - 1
		}
		return o
	}
}

// Buckets is reusable scratch for Layout.Bucket. After a call, owner o's
// entries are Order[Start[o]:Start[o+1]].
type Buckets struct {
	Start []int   // P+1 offsets into Order
	Order []int32 // positions in the caller's idx, grouped by owner
	own   []int32
	next  []int
}

// Bucket groups idx by owning processor with a stable counting sort: owners
// come out in ascending order and each owner's positions keep call order.
// Each index's owner is computed once; b's slices are grown as needed, so
// a reused Buckets makes the call allocation-free.
func (l Layout) Bucket(idx []int, b *Buckets) {
	n := len(idx)
	if cap(b.own) < n {
		b.own = make([]int32, n)
		b.Order = make([]int32, n)
	}
	if cap(b.Start) < l.P+1 {
		b.Start = make([]int, l.P+1)
		b.next = make([]int, l.P)
	}
	own, start, next := b.own[:n], b.Start[:l.P+1], b.next[:l.P]
	clear(next)
	switch l.Kind {
	case LayoutCyclic:
		for k, i := range idx {
			own[k] = int32(i % l.P)
		}
	case LayoutHashed:
		for k, i := range idx {
			own[k] = int32(stats.Mix64(l.HSeed, uint64(i)) % uint64(l.P))
		}
	case LayoutSingle:
		for k := range own {
			own[k] = int32(l.Owner)
		}
	default:
		for k, i := range idx {
			own[k] = int32(min(i/l.Block, l.P-1))
		}
	}
	for _, o := range own {
		next[o]++
	}
	s := 0
	for o, cnt := range next {
		start[o] = s
		next[o] = s
		s += cnt
	}
	start[l.P] = s
	order := b.Order[:n]
	for k, o := range own {
		order[next[o]] = int32(k)
		next[o]++
	}
	b.Start, b.Order = start, order
}

// PerOwner returns how many words of [off, off+n) each processor owns.
func (l Layout) PerOwner(off, n int) []int {
	per := make([]int, l.P)
	switch l.Kind {
	case LayoutBlocked, LayoutDefault:
		l.Spans(off, n, func(owner, off, cnt int) { per[owner] += cnt })
	case LayoutSingle:
		per[l.Owner] = n
	case LayoutCyclic:
		base := n / l.P
		for o := range per {
			per[o] = base
		}
		for i := off + base*l.P; i < off+n; i++ {
			per[i%l.P]++
		}
	default:
		for i := off; i < off+n; i++ {
			per[l.OwnerOf(i)]++
		}
	}
	return per
}

// Spans calls fn(owner, off, count) for each maximal same-owner run of
// [off, off+n), in address order. For blocked and single layouts the number
// of spans is small; for cyclic and hashed it degenerates to per-word calls.
func (l Layout) Spans(off, n int, fn func(owner, off, cnt int)) {
	switch l.Kind {
	case LayoutSingle:
		if n > 0 {
			fn(l.Owner, off, n)
		}
	case LayoutBlocked, LayoutDefault:
		for n > 0 {
			o := l.OwnerOf(off)
			end := (off/l.Block + 1) * l.Block
			if o == l.P-1 {
				end = off + n
			}
			take := end - off
			if take > n {
				take = n
			}
			fn(o, off, take)
			off += take
			n -= take
		}
	default:
		for n > 0 {
			o := l.OwnerOf(off)
			cnt := 1
			for cnt < n && l.OwnerOf(off+cnt) == o {
				cnt++
			}
			fn(o, off, cnt)
			off += cnt
			n -= cnt
		}
	}
}

// OwnsRange reports whether proc owns every word of [off, off+n).
func (l Layout) OwnsRange(proc, off, n int) bool {
	switch l.Kind {
	case LayoutSingle:
		return l.Owner == proc
	case LayoutBlocked, LayoutDefault:
		if n <= 0 {
			return true
		}
		return l.OwnerOf(off) == proc && l.OwnerOf(off+n-1) == proc
	default:
		for i := off; i < off+n; i++ {
			if l.OwnerOf(i) != proc {
				return false
			}
		}
		return true
	}
}
