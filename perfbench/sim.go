package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/membank"
	"repro/internal/obs"
	"repro/internal/sim"
)

const (
	// sweepWorkers is every workload's parallelism: sweep workers for the
	// experiments, accessor workers for membank, service workers and
	// clients for serve. It is the CPU count of the machine the bounds in
	// BENCHMARK.json were set on.
	sweepWorkers = 2
	// setupPasses is how often a run sets up; setup_s is their median.
	setupPasses = 9
	// runsPerPoint keeps a sort or rank round at one repetition per sweep
	// point, so a run holds several rounds; sweeps stay full size.
	runsPerPoint = 1
	// membankSeeds is the number of seeds one membank round runs every
	// configuration with, at fig7's full 500 accesses per processor.
	membankSeeds    = 20
	membankAccesses = 500
)

// simWorkload is a workload whose rounds run simulations in this process.
type simWorkload struct {
	name string
	// setup is one set-up pass; pass counts from 0.
	setup func(pass int) error
	// round runs one round, recording into tr when traced, and returns the
	// round's output digest. It counts its operations and failures in out.
	round func(tr *obs.WallTracer, out *outcome) digest
	// afterTraced, if set, runs untimed after each traced round.
	afterTraced func() time.Duration
	// jobs, if set, collects every job's latency in ms as rounds run them;
	// otherwise a round is one job.
	jobs *[]float64
}

func runExperiments(c config, name string, ids []string) (*outcome, error) {
	net := machine.DefaultNet()
	return simWorkload{
		name: name,
		// Every fig1-6 run starts by calibrating the network; set-up does
		// the same once, so lazily built state is warm before timing.
		setup: func(pass int) error {
			experiments.Calibrate(net, c.seed+int64(pass), sweepWorkers)
			return nil
		},
		round: func(tr *obs.WallTracer, out *outcome) digest {
			d := digest{}
			for _, id := range ids {
				out.attempted++
				ev0 := sim.TotalEvents()
				sp := tr.Start("", "bench", "run", id)
				res, err := experiments.Run(id, experiments.Options{
					Seed: c.seed, Runs: runsPerPoint, Parallelism: sweepWorkers, Wall: tr,
				})
				sp.End()
				if err != nil {
					out.fail("%s %s seed %d: %v", name, id, c.seed, err)
					continue
				}
				d[id] = entry{SHA256: sha(res.String()), SimEvents: sim.TotalEvents() - ev0}
			}
			return d
		},
		afterTraced: func() time.Duration {
			t0 := time.Now()
			experiments.Calibrate(net, c.seed, sweepWorkers)
			return time.Since(t0)
		},
	}.run(c)
}

func runMembank(c config) (*outcome, error) {
	cfgs := membank.AllConfigs()
	var jobs []float64
	return simWorkload{
		name: "membank",
		setup: func(pass int) error {
			for _, cfg := range cfgs {
				membank.RunAll(cfg, membankAccesses, c.seed+int64(pass))
			}
			return nil
		},
		round: func(_ *obs.WallTracer, out *outcome) digest {
			return membankRound(cfgs, c.seed, out, &jobs)
		},
		jobs: &jobs,
	}.run(c)
}

// membankRound runs every configuration under membankSeeds seeds derived
// from seed, across sweepWorkers goroutines; each membank.RunAll call is a
// job, whose latency it appends to jobs. Its digest holds a SHA-256 of
// every result, the round's exact event count, and each (configuration,
// pattern) average over the seeds; it also checks fig7's ordering
// Conflict > Random >= NoConflict on those averages.
func membankRound(cfgs []membank.Config, seed int64, out *outcome, jobs *[]float64) digest {
	n := membankSeeds * len(cfgs)
	res := make([][]membank.Result, n)
	lat := make([]float64, n)
	ev0 := sim.TotalEvents()
	forEach(n, func(i int) {
		t0 := time.Now()
		res[i] = membank.RunAll(cfgs[i%len(cfgs)], membankAccesses, seed*1000+int64(i/len(cfgs)))
		lat[i] = time.Since(t0).Seconds() * 1e3
	})
	*jobs = append(*jobs, lat...)
	out.attempted += n + len(cfgs)
	var all strings.Builder
	mean := map[string]float64{}
	for i, rs := range res {
		for _, r := range rs {
			fmt.Fprintf(&all, "%s %s %d %v %v\n", r.Config.Name, r.Pattern, i/len(cfgs), r.AvgCycles, r.MaxBankUtil)
			mean[r.Config.Name+"/"+r.Pattern.String()] += r.AvgCycles / membankSeeds
		}
	}
	d := digest{"all": {SHA256: sha(all.String()), SimEvents: sim.TotalEvents() - ev0}}
	for k, v := range mean {
		d[k] = entry{Value: v}
	}
	for _, cfg := range cfgs {
		rnd, cf, nc := mean[cfg.Name+"/Random"], mean[cfg.Name+"/Conflict"], mean[cfg.Name+"/NoConflict"]
		if !(cf > rnd && rnd >= nc) {
			out.fail("membank %s seed %d: averages Conflict %.1f, Random %.1f, NoConflict %.1f break fig7's ordering",
				cfg.Name, seed, cf, rnd, nc)
		}
	}
	return d
}

// forEach calls fn for every index in [0, n) on sweepWorkers goroutines
// and returns when all calls have.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// run sets up setupPasses times, then repeats rounds for the run's seconds.
// A traced run spends half of them untraced and half traced, each round of
// the second half under a CPU profile and a wall tracer. Every round's
// digest must equal the first's.
func (w simWorkload) run(c config) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	var setups []float64
	for pass := 0; pass < setupPasses; pass++ {
		t0 := time.Now()
		if err := w.setup(pass); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	check := func(d digest) {
		if out.digest == nil {
			out.digest = d
			return
		}
		for _, msg := range out.digest.diff(d) {
			out.fail("%s seed %d: %s differs between rounds", w.name, c.seed, msg)
		}
	}
	budget := c.seconds
	if c.traced {
		budget /= 2
	}
	plain, err := repeat(budget, nil, func() error {
		check(w.round(nil, out))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !c.traced {
		summarize(plain, out.metrics)
		var walls []float64
		for _, s := range plain {
			walls = append(walls, s.wall.Seconds()*1e3)
		}
		jobs, unit := walls, "one round"
		if w.jobs != nil {
			jobs, unit = *w.jobs, "one call"
		}
		out.metrics["jobs_per_s"] = float64(len(jobs)) / (sum(walls) / 1e3)
		out.metrics["job_p50_ms"] = median(jobs)
		out.metrics["job_p99_ms"] = quantile(jobs, 0.99)
		out.metrics["setup_s"] = median(setups)
		out.notes = append(out.notes, fmt.Sprintf("%d rounds, %d jobs; a job is %s", len(walls), len(jobs), unit))
		return out, nil
	}

	lm := newLayerMeter(out.metrics)
	var self, busy, calib []float64
	var tr *obs.WallTracer
	var prof []byte
	traced, err := repeat(budget, &prof, func() error {
		tr = obs.NewWallTracer(0)
		check(w.round(tr, out))
		return nil
	}, func() error {
		if err := lm.add(prof); err != nil {
			return err
		}
		spans, err := exportSpans(tr)
		if err != nil {
			return err
		}
		sweeps := filterSpans(spans, func(s span) bool { return s.layer == "runner" && s.cat == "sweep" })
		var selfUS, busyUS float64
		for _, r := range filterSpans(spans, func(s span) bool { return s.layer == "bench" }) {
			selfUS += r.end - r.start - covered(r.start, r.end, sweeps)
		}
		for _, s := range sweeps {
			busyUS += s.end - s.start
		}
		self = append(self, selfUS/1e6)
		busy = append(busy, busyUS/1e6)
		if w.afterTraced != nil {
			calib = append(calib, w.afterTraced().Seconds())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, lm.finish(len(traced)))
	events := float64(plain[0].events)
	out.metrics["sim.events"] = events
	out.metrics["sim.ns_per_event"] = out.metrics["sim.cpu_s"] * 1e9 / events
	out.metrics["experiments.self_s"] = median(self)
	out.metrics["experiments.calibrate_s"] = median(calib)
	out.metrics["runner.busy_s"] = median(busy)
	out.metrics["trace.overhead_ratio"] = medianWall(traced) / medianWall(plain)
	out.notes = append(out.notes, fmt.Sprintf("%d untraced and %d traced rounds", len(plain), len(traced)))
	return out, nil
}

func medianWall(ss []sample) float64 {
	var w []float64
	for _, s := range ss {
		w = append(w, s.wall.Seconds())
	}
	return median(w)
}

// repeat measures round until seconds have passed, at least once, each time
// profiled into *prof when prof is non-nil and followed by the untimed
// after functions.
func repeat(seconds float64, prof *[]byte, round func() error, after ...func() error) ([]sample, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var out []sample
	for len(out) == 0 || time.Now().Before(deadline) {
		s, err := measure(prof, round)
		if err != nil {
			return nil, err
		}
		for _, f := range after {
			if err := f(); err != nil {
				return nil, err
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// layerMeter sums CPU-profile time per layer over the traced rounds of a
// run and turns it into per-round metrics.
type layerMeter struct {
	m     map[string]float64
	ns    map[string]int64
	total int64
}

// newLayerMeter zeroes every per-layer metric in m, so each one is reported
// on every workload even where its layer does no work.
func newLayerMeter(m map[string]float64) *layerMeter {
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return &layerMeter{m: m, ns: map[string]int64{}}
}

func (l *layerMeter) add(prof []byte) error {
	t, err := attribute(prof, l.ns)
	l.total += t
	return err
}

// finish sets the per-round metrics and returns a note naming what
// other.cpu_s holds.
func (l *layerMeter) finish(rounds int) string {
	per := func(ns int64) float64 { return float64(ns) / 1e9 / float64(rounds) }
	named := map[string]bool{layerGC: true, layerHandoff: true, layerUnmatched: true}
	for _, layer := range cpuLayers {
		l.m[layer+".cpu_s"] = per(l.ns[layer])
		named[layer] = true
	}
	var other int64
	var parts []string
	for layer, ns := range l.ns {
		if !named[layer] {
			other += ns
			parts = append(parts, fmt.Sprintf("%s %.3gs", layer, per(ns)))
		}
	}
	sort.Strings(parts)
	l.m["other.cpu_s"] = per(other)
	l.m["runtime.handoff_cpu_s"] = per(l.ns[layerHandoff])
	l.m["runtime.gc_cpu_s"] = per(l.ns[layerGC])
	l.m["profile.cpu_s"] = per(l.total)
	if l.total > 0 {
		l.m["layers.unattributed_share"] = float64(l.ns[layerUnmatched]) / float64(l.total)
	}
	return "other.cpu_s per round: " + strings.Join(parts, ", ")
}
