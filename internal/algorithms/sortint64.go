package algorithms

import "slices"

// radixCutoff is the length below which sortInt64 hands off to slices.Sort:
// under it, clearing and scanning the 8×256 histograms costs more than a
// comparison sort.
const radixCutoff = 256

// sortInt64 sorts xs in ascending order. It is an LSD radix sort over the
// bytes of radixKey(v), so negative keys sort correctly. One counting pass
// builds all eight byte histograms, a byte on which every key agrees costs
// no pass, and the passes ping-pong through one scratch buffer.
func sortInt64(xs []int64) {
	n := len(xs)
	if n < radixCutoff {
		slices.Sort(xs)
		return
	}
	var counts [8][256]int
	for _, v := range xs {
		u := radixKey(v)
		counts[0][byte(u)]++
		counts[1][byte(u>>8)]++
		counts[2][byte(u>>16)]++
		counts[3][byte(u>>24)]++
		counts[4][byte(u>>32)]++
		counts[5][byte(u>>40)]++
		counts[6][byte(u>>48)]++
		counts[7][byte(u>>56)]++
	}
	first := radixKey(xs[0])
	src, dst := xs, make([]int64, n)
	for pass := range counts {
		shift := 8 * pass
		c := &counts[pass]
		if c[byte(first>>shift)] == n {
			continue // every key has the same byte here
		}
		off := 0
		for d, k := range c {
			c[d] = off
			off += k
		}
		for _, v := range src {
			d := byte(radixKey(v) >> shift)
			dst[c[d]] = v
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
}

// radixKey maps v to an unsigned key with the same order: flipping the sign
// bit puts negative values below non-negative ones.
func radixKey(v int64) uint64 { return uint64(v) ^ 1<<63 }
