package experiments

import (
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register("engine", "Engine: event-loop workload shapes for the perf trajectory", engineBench)
}

// engineWorkloads are the schedule shapes BENCH_engine.json tracks across
// PRs: each row drives the raw engine the way one subsystem does, and the
// table records only simulation-determined values (event counts and final
// sim time), so it is byte-identical across process kinds and parallelism.
// The wall-clock side — events/sec — lands in the BENCH record
// cmd/qsmbench -json wraps around the whole driver.
var engineWorkloads = []struct {
	name string
	run  func(n int, seed int64) (uint64, sim.Time)
}{
	// One state-machine process advancing a cycle per event: the floor of
	// per-event cost with zero context switches.
	{"step-ticker", func(n int, _ int64) (uint64, sim.Time) {
		e := sim.NewEngine()
		i := 0
		e.SpawnStep("ticker", func(sp *sim.StepProc) sim.Status {
			if i == n {
				return sim.StepDone
			}
			i++
			return sp.Sleep(1)
		})
		mustRun(e)
		return e.Events(), e.Now()
	}},
	// The same schedule as a goroutine process: two context switches per
	// event, the cost the StepProc API removes.
	{"goroutine-ticker", func(n int, _ int64) (uint64, sim.Time) {
		e := sim.NewEngine()
		e.Spawn("ticker", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
			}
		})
		mustRun(e)
		return e.Events(), e.Now()
	}},
	// Both process kinds interleaved at staggered periods: the scheduler
	// carries 64 pending events at all times.
	{"mixed-64", func(n int, _ int64) (uint64, sim.Time) {
		e := sim.NewEngine()
		for i := 0; i < 64; i++ {
			d := sim.Time(1 + i%7)
			if i%2 == 0 {
				j := 0
				e.SpawnStep("s", func(sp *sim.StepProc) sim.Status {
					if j == n {
						return sim.StepDone
					}
					j++
					return sp.Sleep(d)
				})
			} else {
				e.Spawn("g", func(p *sim.Proc) {
					for j := 0; j < n; j++ {
						p.Advance(d)
					}
				})
			}
		}
		mustRun(e)
		return e.Events(), e.Now()
	}},
	// Each step detonates a same-instant cohort of callbacks: the shape the
	// nowq ring batch-drains without touching the time-ordered scheduler.
	{"bursty-cohort", func(n int, _ int64) (uint64, sim.Time) {
		e := sim.NewEngine()
		sink := 0
		for i := 0; i < 16; i++ {
			j := 0
			e.SpawnStep("burst", func(sp *sim.StepProc) sim.Status {
				if j == n {
					return sim.StepDone
				}
				j++
				for k := 0; k < 8; k++ {
					e.At(sp.Now(), func() { sink++ })
				}
				return sp.Sleep(5)
			})
		}
		mustRun(e)
		return e.Events(), e.Now()
	}},
	// A send/recv ping through the channel's delayed delivery: every message
	// in flight rides the closure-free wire shuttle.
	{"chan-ping", func(n int, _ int64) (uint64, sim.Time) {
		e := sim.NewEngine()
		c := e.NewChan()
		e.Spawn("recv", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				c.Recv(p)
			}
		})
		e.Spawn("send", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Advance(1)
				c.SendAfter(1, i)
			}
		})
		mustRun(e)
		return e.Events(), e.Now()
	}},
	// The fig7 hot spot in miniature: stepped accessors hammering bank
	// servers, most wakes landing just past now with a service-time tail.
	{"membank-shaped", func(n int, seed int64) (uint64, sim.Time) {
		e := sim.NewEngine()
		banks := make([]*sim.Server, 8)
		for i := range banks {
			banks[i] = e.NewServer()
		}
		for pid := 0; pid < 8; pid++ {
			const stService = 1
			state, a := 0, 0
			var bank int
			e.SpawnStepSeeded("acc", int64(stats.Mix64(uint64(seed), uint64(pid))), func(sp *sim.StepProc) sim.Status {
				if state == stService {
					_, bEnd := banks[bank].UseAt(sp.Now()+30, 55)
					a++
					state = 0
					return sp.SleepUntil(bEnd + 30)
				}
				if a == n {
					return sim.StepDone
				}
				bank = sp.Rand().Intn(len(banks))
				state = stService
				return sp.Sleep(6)
			})
		}
		mustRun(e)
		return e.Events(), e.Now()
	}},
}

func mustRun(e *sim.Engine) {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// engineBench is the "engine" pseudo-experiment: not a paper figure but the
// committed perf trajectory's workload set (ROADMAP item 3). Its table pins
// the deterministic side of each workload; pair it with the BENCH_engine.json
// wall-clock record to read events/sec.
func engineBench(opt Options) (*Result, error) {
	n := 100000
	if opt.Quick {
		n = 10000
	}
	scale := []int{n, n, n / 50, n / 50, n / 3, n / 40}
	type row struct {
		events uint64
		end    sim.Time
	}
	rows := sweepPoints(opt, len(engineWorkloads), func(i int, _ *obs.Recorder) row {
		ev, end := engineWorkloads[i].run(scale[i], opt.Seed)
		return row{ev, end}
	})
	t := report.NewTable("Engine: workload shapes (simulation-determined values)",
		"workload", "iterations", "sim events", "final t (cycles)")
	for i, w := range engineWorkloads {
		t.AddRow(w.name, report.I(float64(scale[i])), report.I(float64(rows[i].events)), report.I(float64(rows[i].end)))
	}
	t.AddNote("values are scheduler- and process-kind-independent by construction; events/sec for these shapes lives in BENCH_engine.json and internal/sim's microbenchmarks.")
	return &Result{ID: "engine", Title: Title("engine"), Tables: []*report.Table{t}}, nil
}
