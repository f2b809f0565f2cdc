package algorithms

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSortInt64 sorts a copy of in with sortInt64 and compares it with
// slices.Sort.
func checkSortInt64(t *testing.T, in []int64) {
	t.Helper()
	got := slices.Clone(in)
	sortInt64(got)
	want := slices.Clone(in)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("sortInt64 of %d keys disagrees with slices.Sort\ngot  %v\nwant %v", len(in), got, want)
	}
}

func randInt64s(n int, seed int64, key func(r *rand.Rand) int64) []int64 {
	r := rand.New(rand.NewSource(seed))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = key(r)
	}
	return xs
}

func TestSortInt64(t *testing.T) {
	anyKey := func(r *rand.Rand) int64 { return int64(r.Uint64()) }
	cases := map[string][]int64{
		"all-equal":   randInt64s(1000, 0, func(*rand.Rand) int64 { return -3 }),
		"extremes":    randInt64s(700, 1, func(r *rand.Rand) int64 { return []int64{math.MinInt64, math.MaxInt64, 0, -1}[r.Intn(4)] }),
		"mixed-sign":  randInt64s(5000, 2, func(r *rand.Rand) int64 { return r.Int63n(2001) - 1000 }),
		"top-byte":    randInt64s(3000, 3, func(r *rand.Rand) int64 { return int64(uint64(r.Intn(256))<<56 | 0x0123456789abcd) }),
		"bottom-byte": randInt64s(3000, 4, func(r *rand.Rand) int64 { return -0x0123456789ab00 | int64(r.Intn(256)) }),
		"negative":    randInt64s(radixCutoff*4, 5, func(r *rand.Rand) int64 { return -int64(r.Intn(radixCutoff * 4)) }),
	}
	for _, n := range []int{0, 1, radixCutoff - 1, radixCutoff, radixCutoff + 1} {
		cases[fmt.Sprintf("len-%d", n)] = randInt64s(n, int64(n), anyKey)
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) { checkSortInt64(t, in) })
	}
}

// FuzzSortInt64 reads the fuzz input as little-endian int64 keys, repeated
// up to the radix cutoff so the radix path is exercised too.
func FuzzSortInt64(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte("sample sort buckets hold any int64 key"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var in []int64
		for len(data) >= 8 {
			in = append(in, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		for len(in) > 0 && len(in) < radixCutoff {
			// Vary the copies so repetition does not only produce ties.
			in = append(in, in[len(in)-1]^int64(len(in)))
		}
		checkSortInt64(t, in)
	})
}

var sortSink []int64

func BenchmarkSortInt64(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		in := randInt64s(n, 9, func(r *rand.Rand) int64 { return r.Int63n(1 << 30) })
		buf := make([]int64, n)
		for _, s := range []struct {
			name string
			sort func([]int64)
		}{{"radix", sortInt64}, {"slices", slices.Sort[[]int64]}} {
			b.Run(fmt.Sprintf("%s/n=%d", s.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(buf, in)
					s.sort(buf)
				}
				sortSink = buf
			})
		}
	}
}
