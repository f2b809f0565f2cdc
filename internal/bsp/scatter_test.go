package bsp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/qsmlib"
)

// scatterRounds is the number of supersteps TestScatteredSemantics runs; each
// reuses the same caller-owned idx, vals and dst buffers.
const scatterRounds = 3

// scatterPlan returns node id's PutIndexed and GetIndexed arguments for
// round r on an n-word array. Each word has one writer, (w/3) mod p, so the
// final state is independent of cross-node order; within a call some words
// are written twice with the right value last, and reads repeat words.
func scatterPlan(id, p, n, r int) (idx []int, vals []int64, gidx []int) {
	rng := rand.New(rand.NewSource(int64(100*r + id)))
	for _, w := range rng.Perm(n) {
		if (w/3)%p != id {
			continue
		}
		if rng.Intn(4) == 0 {
			idx = append(idx, w)
			vals = append(vals, -1) // overwritten later in the same call
		}
		idx = append(idx, w)
		vals = append(vals, scatterVal(w, r))
	}
	for k := 0; k < n/2; k++ {
		gidx = append(gidx, rng.Intn(n))
	}
	return idx, vals, gidx
}

func scatterVal(w, r int) int64 { return int64(10000*(r+1) + 3*w + 1) }

// scatterProgram runs scatterRounds supersteps of PutIndexed+GetIndexed on
// one array and records in bad[id] the first read that disagrees with the
// sequential oracle (reads see the previous round's values).
func scatterProgram(kind core.LayoutKind, n int, bad []string) core.Program {
	return func(ctx core.Ctx) {
		id, p := ctx.ID(), ctx.P()
		h := ctx.RegisterSpec("a", n, core.LayoutSpec{Kind: kind, Owner: p - 1})
		ctx.Sync()
		idx := make([]int, 0, n)
		vals := make([]int64, 0, n)
		dst := make([]int64, n/2)
		for r := 0; r < scatterRounds; r++ {
			ri, rv, gi := scatterPlan(id, p, n, r)
			idx = append(idx[:0], ri...)
			vals = append(vals[:0], rv...)
			ctx.PutIndexed(h, idx, vals)
			ctx.GetIndexed(h, gi, dst)
			ctx.Sync()
			for k, w := range gi {
				want := int64(0)
				if r > 0 {
					want = scatterVal(w, r-1)
				}
				if dst[k] != want && bad[id] == "" {
					bad[id] = fmt.Sprintf("round %d: a[%d] read %d, want %d", r, w, dst[k], want)
				}
			}
		}
	}
}

// TestScatteredSemantics pins the scattered put/get contract on both
// backends that group indices by owner (the native library and the BSP
// emulation): last write in a call wins, reads see pre-phase state, self
// and remote words mix freely, and caller buffers may be reused after Sync.
func TestScatteredSemantics(t *testing.T) {
	const p, n = 4, 97
	type backend struct {
		name string
		run  func(core.Program) ([]int64, error)
	}
	backends := []backend{
		{"qsmlib", func(prog core.Program) ([]int64, error) {
			m := qsmlib.New(p, qsmlib.Options{Seed: 3})
			err := m.Run(prog)
			return m.Array("a"), err
		}},
		{"bsp", func(prog core.Program) ([]int64, error) {
			qm := NewQSM(p, Options{Seed: 3}, core.LayoutBlocked)
			err := qm.Run(prog)
			return qm.Array("a"), err
		}},
	}
	layouts := map[string]core.LayoutKind{
		"blocked": core.LayoutBlocked, "cyclic": core.LayoutCyclic,
		"hashed": core.LayoutHashed, "single": core.LayoutSingle,
	}
	for _, be := range backends {
		for lname, kind := range layouts {
			t.Run(be.name+"/"+lname, func(t *testing.T) {
				bad := make([]string, p)
				got, err := be.run(scatterProgram(kind, n, bad))
				if err != nil {
					t.Fatal(err)
				}
				for id, msg := range bad {
					if msg != "" {
						t.Errorf("node %d: %s", id, msg)
					}
				}
				for w, v := range got {
					if want := scatterVal(w, scatterRounds-1); v != want {
						t.Fatalf("final a[%d] = %d, want %d", w, v, want)
					}
				}
			})
		}
	}
}
