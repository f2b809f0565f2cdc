package membank

import (
	"bytes"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// goAccessor is processor pid in goroutine form: n synchronous accesses,
// each a ReqOverhead advance, the reservations, and an advance to the reply.
// It is the reference semantics stepAccessor must reproduce exactly.
func goAccessor(m *machine, pid int) func(*sim.Proc) {
	return func(p *sim.Proc) {
		rng := p.Rand()
		start := p.Now()
		for a := 0; a < m.n; a++ {
			bank := m.pick(pid, rng)
			t0 := p.Now()
			p.Advance(m.cfg.ReqOverhead)
			done := m.access(p.Now(), bank)
			p.Advance(done - p.Now())
			m.bo.cycles.Observe(float64(p.Now() - t0))
		}
		m.totals[pid] = p.Now() - start
	}
}

// spawnGo starts processor pid as a goAccessor.
func spawnGo(e *sim.Engine, m *machine, pid int, name string, seed int64) {
	e.SpawnSeeded(name, seed, goAccessor(m, pid))
}

// runMetrics runs one observed simulation with the given spawner and
// returns its Result and metrics JSON.
func runMetrics(t *testing.T, cfg Config, pat Pattern, spawn spawnFn) (Result, []byte) {
	t.Helper()
	sink := obs.NewSink(obs.Config{Metrics: true})
	r := runObserved(cfg, pat, 80, 7, sink.Recorder(sink.Reserve(1)), spawn)
	var m bytes.Buffer
	if err := sink.Merged().WriteMetricsJSON(&m); err != nil {
		t.Fatal(err)
	}
	return r, m.Bytes()
}

// TestSteppedMatchesGoroutine pins the stepped accessor against the
// goroutine reference semantics: identical Results and identical metrics
// (every counter and histogram bucket) for every architecture and pattern.
// The experiments package's golden tables pin the rendered output.
func TestSteppedMatchesGoroutine(t *testing.T) {
	for _, cfg := range AllConfigs() {
		for _, pat := range []Pattern{Random, Conflict, NoConflict} {
			rStep, mStep := runMetrics(t, cfg, pat, spawnStep)
			rGo, mGo := runMetrics(t, cfg, pat, spawnGo)
			if rStep != rGo {
				t.Errorf("%s/%s: stepped result %+v != goroutine result %+v", cfg.Name, pat, rStep, rGo)
			}
			if !bytes.Equal(mStep, mGo) {
				t.Errorf("%s/%s: stepped metrics diverge from goroutine metrics (%d vs %d bytes)",
					cfg.Name, pat, len(mStep), len(mGo))
			}
		}
	}
}
