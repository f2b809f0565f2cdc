// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time through the repository's public entry points, checks that
// every output is correct, prints each metric by name and unit, and ends
// with one JSON result line. Build and run it from the repository root
// through its wrapper:
//
//	python3 perfbench/run.py --workload sort --seed 1 --seconds 20 --trace 0
//
// Workloads (perfbench/spec.json records why each exists and which metric
// each layer moves):
//
//	sort     experiments.Run of fig2 and fig4: host-side sample sort work
//	rank     experiments.Run of fig3 and ext3: scattered single-word traffic
//	membank  membank.RunAll over every configuration and many seeds: engine
//	serve    in-process qsmd under two closed-loop HTTP clients
//
// --trace 0 measures end to end with tracing off. --trace 1 repeats the
// rounds untraced and then traced, and reports the per-layer split from a
// CPU profile of the benchmark process and from wall-clock spans. --record
// writes the run's output digests into perfbench/reference.json, which later
// runs with the same seed must reproduce exactly.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the simulator or the service sees. On sort,
// rank and membank one round of the workload is one job.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"allocs_m", "M"},
	{"peak_heap_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"setup_s", "s"},
}

// cpuLayers are the layers CPU-profile samples are attributed to, reported
// as "<layer>.cpu_s" (runtime layers as "runtime.<kind>_cpu_s").
var cpuLayers = []string{
	"algorithms", "qsmlib", "core", "bsp", "sim", "cpu", "machine", "msg", "membank",
	"experiments", "sched", "service", "store", "obs", layerHTTP,
}

var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_s", "s"})
	}
	return append(defs,
		metricDef{"other.cpu_s", "s"},
		metricDef{"runtime.handoff_cpu_s", "s"},
		metricDef{"runtime.gc_cpu_s", "s"},
		metricDef{"profile.cpu_s", "s"},
		metricDef{"sim.events", "count"},
		metricDef{"sim.ns_per_event", "ns"},
		metricDef{"experiments.self_s", "s"},
		metricDef{"experiments.calibrate_s", "s"},
		metricDef{"runner.busy_s", "s"},
		metricDef{"http.self_ms_p50", "ms"},
		metricDef{"store.get_ms_p50", "ms"},
		metricDef{"queue.wait_ms_p50", "ms"},
		metricDef{"queue.wait_ms_p99", "ms"},
		metricDef{"runner.run_ms_p50", "ms"},
		metricDef{"store.put_ms_p50", "ms"},
		metricDef{"store.flight_wait_ms_p99", "ms"},
		metricDef{"store.hit_ratio", "ratio"},
		metricDef{"queue.coalesced_share", "ratio"},
		metricDef{"store.singleflight_share", "ratio"},
		metricDef{"service.rejected_share", "ratio"},
		metricDef{"stream.ttfe_ms_p50", "ms"},
		metricDef{"layers.unattributed_share", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
	)
}()

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
}

// outcome is what a workload reports: operations attempted, the failing
// ones by name, every metric of the run's kind, and the output digests
// --record stores.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]float64
	notes     []string // extra human-readable lines
	digest    digest
}

func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"sort":    func(c config) (*outcome, error) { return runExperiments(c, "sort", []string{"fig2", "fig4"}) },
	"rank":    func(c config) (*outcome, error) { return runExperiments(c, "rank", []string{"fig3", "ext3"}) },
	"membank": runMembank,
	"serve":   runServe,
}

// reason is a condition on a traced run's per-layer metrics under which
// its workload measures what it exists for.
type reason struct {
	what string
	ok   func(m map[string]float64) bool
}

var attributed = reason{"layers.unattributed_share <= 0.05", func(m map[string]float64) bool {
	return m["layers.unattributed_share"] <= 0.05
}}

// largest holds when layer has more CPU than every other layer, runtime
// buckets and other.cpu_s included.
func largest(layer string) reason {
	return reason{layer + " is the largest layer", func(m map[string]float64) bool {
		for k, v := range m {
			if strings.HasSuffix(k, ".cpu_s") && k != "profile.cpu_s" && k != layer && v >= m[layer] {
				return false
			}
		}
		return true
	}}
}

// reasons are checked on every traced run; a breach is a named failure.
var reasons = map[string][]reason{
	"sort":    {attributed, largest("algorithms.cpu_s")},
	"rank":    {attributed},
	"membank": {attributed, largest("sim.cpu_s")},
	"serve": {
		{"queue.wait_ms_p99 > 0", func(m map[string]float64) bool { return m["queue.wait_ms_p99"] > 0 }},
		{"0 < store.hit_ratio < 1", func(m map[string]float64) bool {
			return m["store.hit_ratio"] > 0 && m["store.hit_ratio"] < 1
		}},
	},
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: sort, rank, membank or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 reports the per-layer split")
	record := fs.Bool("record", false, "write this run's output digests into "+referencePath)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload sort|rank|membank|serve, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == 1}
	start := time.Now()
	out, err := w(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if cfg.traced {
		for _, r := range reasons[*name] {
			out.attempted++
			if !r.ok(out.metrics) {
				out.fail("%s seed %d traced: %s does not hold", *name, *seed, r.what)
			}
		}
	}
	key := strconv.FormatInt(*seed, 10)
	if *record {
		ref.set(*name, key, out.digest)
		if err := ref.save(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	} else if want, ok := ref.get(*name, key); ok {
		out.attempted += len(want)
		for _, msg := range want.diff(out.digest) {
			out.fail("%s seed %d: %s differs from %s", *name, *seed, msg, referencePath)
		}
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	if err := report(*name, cfg, defs, out, time.Since(start)); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if len(out.failures) > 0 {
		return 1
	}
	return 0
}

// report prints every metric by name and unit, the failing operations, and
// the JSON result line last.
func report(name string, cfg config, defs []metricDef, out *outcome, took time.Duration) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", name, d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	var extra []string
	for k := range out.metrics {
		if _, ok := metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("%s measured undeclared metrics %s", name, strings.Join(extra, ", "))
	}
	for _, f := range out.failures {
		fmt.Fprintln(os.Stderr, "FAIL", f)
	}
	if out.attempted < 1 {
		return errors.New("no operation attempted")
	}
	fmt.Printf("workload %s  seed %d  trace %v  %.1fs\n", name, cfg.seed, cfg.traced, took.Seconds())
	for _, d := range defs {
		fmt.Printf("  %-28s %14.6g %s\n", d.name, out.metrics[d.name], d.unit)
	}
	fmt.Printf("  %-28s %14.6g %s  (%d failed of %d attempted)\n", "error_rate",
		float64(len(out.failures))/float64(out.attempted), "ratio", len(out.failures), out.attempted)
	for _, n := range out.notes {
		fmt.Println("  " + n)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.failures) == 0, out.attempted, len(out.failures), metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
