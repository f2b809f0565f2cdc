package algorithms

import (
	"fmt"
	"slices"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/cpu"
)

// KSelect finds the k-th smallest element (0-indexed) of a distributed
// array by randomized pivoting — an extension workload built on the
// collective library. Each round broadcasts a pivot, counts elements below
// and equal to it with an AllReduce, and discards the irrelevant side;
// O(log n) rounds whp, each a constant number of phases. When few elements
// survive, they are gathered on processor 0 and finished sequentially.
//
// The selected value appears in the one-word shared array "ksel.out".
type KSelect struct {
	N int
	K int // rank to select, 0-indexed
	// Input returns processor id's block of the distributed input.
	Input func(id, p int) []int64
	// GatherAt is the survivor threshold below which the remainder moves to
	// processor 0; zero means 4096.
	GatherAt int
}

// Out returns the name of the result array.
func (KSelect) Out() string { return "ksel.out" }

// Program returns the QSM program.
func (a KSelect) Program() core.Program {
	gatherAt := a.GatherAt
	if gatherAt == 0 {
		gatherAt = 4096
	}
	return func(ctx core.Ctx) {
		p, id := ctx.P(), ctx.ID()
		if a.K < 0 || a.K >= a.N {
			panic(fmt.Sprintf("algorithms: k=%d out of range for n=%d", a.K, a.N))
		}
		local := append([]int64(nil), a.Input(id, p)...)
		out := ctx.RegisterSpec("ksel.out", 1, core.LayoutSpec{Kind: core.LayoutSingle, Owner: 0})
		stage := ctx.RegisterSpec("ksel.stage", a.N, core.LayoutSpec{Kind: core.LayoutSingle, Owner: 0})
		g := collective.NewGroup(ctx, "ksel")
		ctx.Sync()

		k := int64(a.K)
		for round := 0; ; round++ {
			counts := g.AllGather([]int64{int64(len(local))})
			var total int64
			for _, c := range counts {
				total += c
			}
			if total <= int64(gatherAt) {
				break
			}

			// The processor holding the most survivors proposes a random
			// pivot from its active set (deterministic tie-break by id).
			best := 0
			for i, c := range counts {
				if c > counts[best] {
					best = i
				}
			}
			var proposal int64
			if id == best {
				proposal = local[ctx.Rand().Intn(len(local))]
			}
			pivot := g.Broadcast(best, []int64{proposal})[0]

			var below, equal int64
			for _, v := range local {
				switch {
				case v < pivot:
					below++
				case v == pivot:
					equal++
				}
			}
			ctx.Compute(cpu.BlockSum(len(local)))
			agg := g.AllReduce([]int64{below, equal}, collective.Sum)
			gBelow, gEqual := agg[0], agg[1]

			switch {
			case k < gBelow:
				local = filter(local, func(v int64) bool { return v < pivot })
			case k < gBelow+gEqual:
				// The pivot is the answer.
				if id == 0 {
					ctx.Put(out, 0, []int64{pivot})
				}
				ctx.Sync()
				return
			default:
				local = filter(local, func(v int64) bool { return v > pivot })
				k -= gBelow + gEqual
			}
			ctx.Compute(cpu.BlockCompact(len(local)))
		}

		// Gather the survivors on processor 0 and finish sequentially.
		off, _ := g.ExclusiveScan(int64(len(local)), collective.Sum, 0)
		if len(local) > 0 {
			ctx.Put(stage, int(off), local)
		}
		total := g.AllReduce([]int64{int64(len(local))}, collective.Sum)[0]
		if id == 0 {
			rest := make([]int64, total)
			ctx.ReadLocal(stage, 0, rest)
			slices.Sort(rest)
			ctx.Compute(cpu.BlockQuickSort(len(rest)))
			ctx.Put(out, 0, []int64{rest[k]})
		}
		ctx.Sync()
	}
}

func filter(xs []int64, keep func(int64) bool) []int64 {
	out := xs[:0]
	for _, v := range xs {
		if keep(v) {
			out = append(out, v)
		}
	}
	return out
}
