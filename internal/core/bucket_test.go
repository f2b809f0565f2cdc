package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// naiveBuckets is the map+sort grouping Layout.Bucket replaces: owners in
// ascending order, each with its positions in call order.
func naiveBuckets(l Layout, idx []int) (owners []int, groups map[int][]int32) {
	groups = map[int][]int32{}
	for k, i := range idx {
		o := l.OwnerOf(i)
		groups[o] = append(groups[o], int32(k))
	}
	for o := range groups {
		owners = append(owners, o)
	}
	sort.Ints(owners)
	return owners, groups
}

func checkBucket(t *testing.T, l Layout, idx []int, b *Buckets) {
	t.Helper()
	l.Bucket(idx, b)
	if len(b.Start) != l.P+1 || b.Start[0] != 0 || b.Start[l.P] != len(idx) || len(b.Order) != len(idx) {
		t.Fatalf("kind %d: Start=%v len(Order)=%d for %d indices", l.Kind, b.Start, len(b.Order), len(idx))
	}
	owners, groups := naiveBuckets(l, idx)
	var got []int
	for o := 0; o < l.P; o++ {
		lo, hi := b.Start[o], b.Start[o+1]
		if lo > hi {
			t.Fatalf("kind %d: Start not monotone at owner %d: %v", l.Kind, o, b.Start)
		}
		if lo == hi {
			continue
		}
		got = append(got, o)
		if !slices.Equal(b.Order[lo:hi], groups[o]) {
			t.Fatalf("kind %d owner %d: positions %v, want %v", l.Kind, o, b.Order[lo:hi], groups[o])
		}
	}
	if !slices.Equal(got, owners) {
		t.Fatalf("kind %d: owners %v, want %v", l.Kind, got, owners)
	}
}

func TestBucketMatchesNaive(t *testing.T) {
	const n, p = 103, 7
	rng := rand.New(rand.NewSource(5))
	random := make([]int, 300)
	for k := range random {
		random[k] = rng.Intn(n)
	}
	all := make([]int, n) // every word, so every owner appears
	for i := range all {
		all[i] = n - 1 - i
	}
	cases := map[string][]int{
		"empty":      {},
		"one":        {42},
		"duplicates": {5, 5, 90, 5, 90, 0, 0, 5},
		"random":     random,
		"all":        all,
	}
	kinds := map[LayoutKind]string{LayoutBlocked: "blocked", LayoutCyclic: "cyclic", LayoutHashed: "hashed", LayoutSingle: "single"}
	for kind, kname := range kinds {
		l := ResolveLayout(LayoutSpec{Kind: kind, Owner: 3}, n, p, LayoutBlocked, 0xbeef)
		var b Buckets // shared across cases: scratch reuse must not leak state
		for name, idx := range cases {
			t.Run(kname+"/"+name, func(t *testing.T) { checkBucket(t, l, idx, &b) })
		}
		if kind != LayoutSingle {
			l.Bucket(all, &b)
			for o := 0; o < p; o++ {
				if b.Start[o] == b.Start[o+1] {
					t.Errorf("kind %d: owner %d empty over all %d words", kind, o, n)
				}
			}
		}
	}
}

func TestBucketSingleOwner(t *testing.T) {
	l := ResolveLayout(LayoutSpec{Kind: LayoutBlocked}, 64, 4, LayoutBlocked, 0)
	idx := []int{17, 16, 31, 17, 20} // all on owner 1, with a duplicate
	var b Buckets
	l.Bucket(idx, &b)
	if want := []int{0, 0, 5, 5, 5}; !slices.Equal(b.Start, want) {
		t.Fatalf("Start = %v, want %v", b.Start, want)
	}
	// Stable: the duplicate 17s keep call order (positions 0 then 3), so a
	// last-writer-wins apply in bucket order still sees position 3 last.
	if want := []int32{0, 1, 2, 3, 4}; !slices.Equal(b.Order, want) {
		t.Fatalf("Order = %v, want call order %v", b.Order, want)
	}
}

func TestBucketAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	idx := make([]int, 4096)
	for k := range idx {
		idx[k] = rng.Intn(1 << 16)
	}
	for _, kind := range []LayoutKind{LayoutBlocked, LayoutCyclic, LayoutHashed, LayoutSingle} {
		l := ResolveLayout(LayoutSpec{Kind: kind}, 1<<16, 16, LayoutBlocked, 7)
		var b Buckets
		l.Bucket(idx, &b) // size the scratch
		if a := testing.AllocsPerRun(50, func() { l.Bucket(idx[:1000+rng.Intn(3000)], &b) }); a != 0 {
			t.Errorf("kind %d: %v allocs per Bucket on sized scratch, want 0", kind, a)
		}
	}
}
