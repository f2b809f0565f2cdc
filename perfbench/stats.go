package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/sim"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly greater than v.
func beyond(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

// ratio is a/b, or 0 when b is 0, so a run whose jobs all failed still
// reports a number.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// sample is what measure records around one round of a workload.
type sample struct {
	wall     time.Duration
	allocs   uint64 // heap objects allocated
	peakHeap uint64 // highest sampled heap object bytes
	events   uint64 // simulator events executed, process-wide
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func readAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapSampler polls the heap's object bytes every interval and keeps the
// highest reading: runtime/metrics has no peak, and the peak falls just
// before a collection.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapSampleInterval = 2 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(heapSampleInterval)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// measure runs fn once from a collected heap and records its wall time,
// allocations, peak heap and simulator events. With prof non-nil it
// also records a CPU profile of fn into *prof; starting and stopping the
// profile stay outside the timed interval.
func measure(prof *[]byte, fn func() error) (sample, error) {
	runtime.GC()
	var buf bytes.Buffer
	if prof != nil {
		if err := pprof.StartCPUProfile(&buf); err != nil {
			return sample{}, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	a0 := readAllocs()
	hs := startHeapSampler()
	ev0 := sim.TotalEvents()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	ev1 := sim.TotalEvents()
	peak := hs.finish()
	a1 := readAllocs()
	if prof != nil {
		pprof.StopCPUProfile()
		*prof = buf.Bytes()
	}
	return sample{wall: wall, allocs: a1 - a0, peakHeap: peak, events: ev1 - ev0}, err
}

// summarize turns the untraced rounds of a run into the end-to-end metrics
// they share: the median round's wall time and allocations, and the 75th
// percentile of the rounds' peak heaps. A round's peak swings with when the
// collector ran and, on serve, with whether two large simulations
// overlapped, which about half the rounds see; the 75th percentile is a
// peak most rounds stay under that no single round decides.
func summarize(rounds []sample, m map[string]float64) {
	var wall, allocs, peak []float64
	for _, r := range rounds {
		wall = append(wall, r.wall.Seconds())
		allocs = append(allocs, float64(r.allocs)/1e6)
		peak = append(peak, float64(r.peakHeap)/(1<<20))
	}
	m["wall_s"] = median(wall)
	m["allocs_m"] = median(allocs)
	m["peak_heap_mb"] = quantile(peak, 0.75)
}
