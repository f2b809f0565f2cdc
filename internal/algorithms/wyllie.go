package algorithms

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// WyllieListRank ranks a list by classic PRAM pointer jumping: every
// element repeatedly replaces its successor pointer with its successor's
// successor, accumulating rank weights, for ceil(log2 n) rounds. It is the
// PRAM-style algorithm Section 2.1 contrasts with QSM design: correct and
// simple, but it keeps every element active in every round — Theta(n log n)
// total communication against the randomized algorithm's Theta(n) — and its
// phase count grows with log n rather than log p. The ext3 experiment
// quantifies that gap on the simulated machine.
//
// Ranks (head = 0) appear in the shared array "wyllie.R".
type WyllieListRank struct {
	List *workload.List
}

// Out returns the name of the result array.
func (WyllieListRank) Out() string { return "wyllie.R" }

// Program returns the QSM program.
func (a WyllieListRank) Program() core.Program {
	return func(ctx core.Ctx) {
		p, id := ctx.P(), ctx.ID()
		l := a.List
		n := l.N
		lo, hi := workload.Partition(n, p, id)
		mine := hi - lo

		// Ranks grow from the head, so we jump along predecessor pointers:
		// the invariant is R[i] = total link weight between i and its
		// current shortcut target P[i]; once P[i] reaches past the head,
		// R[i] is i's distance from the head. Each round doubles shortcut
		// length, so ceil(log2 n) rounds converge.
		R := ctx.RegisterSpec("wyllie.R", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		P := ctx.RegisterSpec("wyllie.P", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		ctx.Sync()
		if mine > 0 {
			ctx.WriteLocal(P, lo, l.Pred[lo:hi])
			r0 := make([]int64, mine)
			for i := range r0 {
				r0[i] = 1
			}
			if l.Head >= lo && l.Head < hi {
				r0[l.Head-lo] = 0
			}
			ctx.WriteLocal(R, lo, r0)
		}
		ctx.Sync()

		rounds := ceilLog2(n)
		pBuf := make([]int64, mine)
		rBuf := make([]int64, mine)
		jumpIdx := make([]int, 0, mine)
		jumpPos := make([]int, 0, mine)
		predP := make([]int64, 0, mine)
		predR := make([]int64, 0, mine)
		wIdx := make([]int, 0, mine)
		rVals := make([]int64, 0, mine)
		pVals := make([]int64, 0, mine)
		for round := 0; round < rounds; round++ {
			if mine > 0 {
				ctx.ReadLocal(P, lo, pBuf)
				ctx.ReadLocal(R, lo, rBuf)
			}
			jumpIdx = jumpIdx[:0]
			jumpPos = jumpPos[:0]
			for k := 0; k < mine; k++ {
				if pBuf[k] >= 0 {
					jumpIdx = append(jumpIdx, int(pBuf[k]))
					jumpPos = append(jumpPos, k)
				}
			}
			predP = predP[:len(jumpIdx)]
			predR = predR[:len(jumpIdx)]
			ctx.GetIndexed(P, jumpIdx, predP)
			ctx.GetIndexed(R, jumpIdx, predR)
			ctx.Compute(cpu.BlockCompact(mine))
			ctx.Sync() // phase: fetch predecessors' state

			// Apply the jump: R[i] += R[pred]; P[i] = P[pred]. Own words
			// are committed via puts so remote readers see a consistent
			// snapshot next phase.
			wIdx = wIdx[:0]
			rVals = rVals[:0]
			pVals = pVals[:0]
			for j, k := range jumpPos {
				rBuf[k] += predR[j]
				wIdx = append(wIdx, lo+k)
				rVals = append(rVals, rBuf[k])
				pVals = append(pVals, predP[j])
			}
			ctx.PutIndexed(R, wIdx, rVals)
			ctx.PutIndexed(P, wIdx, pVals)
			ctx.Compute(cpu.BlockCompact(len(jumpPos)))
			ctx.Sync() // phase: jumps committed
		}
	}
}
