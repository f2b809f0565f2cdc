package sim

import "testing"

// BenchmarkStepProcVsGoroutine measures the per-event cost of the two
// process kinds on the same workload: a single process advancing the clock
// one cycle per event. The goroutine form pays two context switches per
// event; the stepped form a function call.
func BenchmarkStepProcVsGoroutine(b *testing.B) {
	b.Run("Goroutine", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		e.Spawn("ticker", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("StepProc", func(b *testing.B) {
		b.ReportAllocs()
		e := NewEngine()
		i := 0
		e.SpawnStep("ticker", func(sp *StepProc) Status {
			if i == b.N {
				return StepDone
			}
			i++
			return sp.Sleep(1)
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	})
}
