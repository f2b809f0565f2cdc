// Package algorithms implements the paper's three QSM workloads — prefix
// sums, sample sort, and list ranking — as core.Programs that run unchanged
// on the simulated machine (internal/qsmlib) and the native goroutine
// runtime (internal/par), plus their sequential baselines used for
// verification and speedup reporting.
package algorithms

import (
	"slices"

	"repro/internal/workload"
)

// SeqPrefix returns the prefix sums of in: out[i] = in[0] + ... + in[i].
func SeqPrefix(in []int64) []int64 {
	out := make([]int64, len(in))
	var acc int64
	for i, v := range in {
		acc += v
		out[i] = acc
	}
	return out
}

// SeqSort returns a sorted copy of in. It is the oracle the sample sort
// tests compare against, so it stays a comparison sort and does not share
// sortInt64 with the code under test.
func SeqSort(in []int64) []int64 {
	out := append([]int64(nil), in...)
	slices.Sort(out)
	return out
}

// SeqListRank returns the rank (position from the head, head = 0) of every
// element of l, by direct traversal.
func SeqListRank(l *workload.List) []int64 {
	return l.Ranks()
}

// ceilLog2 returns ceil(log2(n)), at least 1.
func ceilLog2(n int) int {
	if n <= 2 {
		return 1
	}
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
