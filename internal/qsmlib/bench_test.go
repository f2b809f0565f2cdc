package qsmlib

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// BenchmarkScatteredSuperstep measures the host cost of one list-ranking
// style superstep: on p=16 nodes, each node issues one GetIndexed and one
// PutIndexed of n/p random words of a blocked array, then Syncs. One op is
// one superstep of the whole machine.
func BenchmarkScatteredSuperstep(b *testing.B) {
	const p, n = 16, 1 << 14
	m := New(p, Options{Seed: 1})
	b.ReportAllocs()
	err := m.Run(func(ctx core.Ctx) {
		h := ctx.RegisterSpec("a", n, core.LayoutSpec{Kind: core.LayoutBlocked})
		rng := rand.New(rand.NewSource(int64(ctx.ID())))
		idx := make([]int, n/p)
		vals := make([]int64, n/p)
		dst := make([]int64, n/p)
		for k := range idx {
			idx[k] = rng.Intn(n)
			vals[k] = int64(k)
		}
		ctx.Sync()
		if ctx.ID() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			ctx.GetIndexed(h, idx, dst)
			ctx.PutIndexed(h, idx, vals)
			ctx.Sync()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
