package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestDeclaredMetrics keeps BENCHMARK.json and spec.json in step with the
// metrics the program reports.
func TestDeclaredMetrics(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, "../BENCHMARK.json", &bench)
	var spec struct {
		EndToEnd map[string]json.RawMessage `json:"end_to_end"`
		PerLayer map[string]json.RawMessage `json:"per_layer"`
	}
	readJSON(t, "spec.json", &spec)
	for _, c := range []struct {
		kind     string
		want     []metricDef
		declared []struct{ Name, Unit string }
		spec     map[string]json.RawMessage
	}{
		{"end_to_end", endToEnd, bench.EndToEnd, spec.EndToEnd},
		{"per_layer", perLayer, bench.PerLayer, spec.PerLayer},
	} {
		if len(c.declared) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", c.kind, len(c.declared), len(c.want))
			continue
		}
		for i, d := range c.want {
			if got := c.declared[i]; got.Name != d.name || got.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the program reports %s %s", c.kind, i, got.Name, got.Unit, d.name, d.unit)
			}
			if _, ok := c.spec[d.name]; !ok {
				t.Errorf("%s: spec.json lacks %s", c.kind, d.name)
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		name   string
		frames []frame
		want   string
	}{
		{"closure inlined into the driver belongs to its file", []frame{
			{"sort.insertionSort_func", "sort/zsortfunc.go"},
			{"repro/internal/experiments.sortOnce.SampleSort.Program.func2", "repro/internal/algorithms/samplesort.go"},
			{"repro/internal/experiments.sortOnce", "repro/internal/experiments/fig123.go"},
		}, "algorithms"},
		{"versioned module path", []frame{
			{"repro/internal/qsmlib.(*ctx).Sync", "repro@v0.0.0/internal/qsmlib/ctx.go"},
		}, "qsmlib"},
		{"channel handoff under sim", []frame{
			{"runtime.futex", "runtime/sys_linux_amd64.s"},
			{"runtime.chansend", "runtime/chan.go"},
			{"repro/internal/sim.(*Proc).yield", "repro/internal/sim/proc.go"},
		}, layerHandoff},
		{"channel work under another layer stays there", []frame{
			{"runtime.chansend", "runtime/chan.go"},
			{"repro/internal/sched.Map", "repro/internal/sched/sched.go"},
		}, "sched"},
		{"scheduler stack", []frame{
			{"runtime.findRunnable", "runtime/proc.go"},
			{"runtime.schedule", "runtime/proc.go"},
			{"runtime.mcall", "runtime/asm_amd64.s"},
		}, layerHandoff},
		{"assist under an allocation", []frame{
			{"runtime.scanobject", "runtime/mgcmark.go"},
			{"runtime.gcAssistAlloc", "runtime/mgcmark.go"},
			{"runtime.mallocgc", "runtime/malloc.go"},
			{"repro/internal/algorithms.ListRank", "repro/internal/algorithms/listrank.go"},
		}, layerGC},
		{"benchmark harness", []frame{{"main.measure", "repro/perfbench/stats.go"}}, layerBench},
		{"server without a repository frame", []frame{
			{"syscall.Syscall", "syscall/syscall_linux.go"},
			{"net.(*conn).Read", "net/net.go"},
			{"net/http.(*conn).serve", "net/http/server.go"},
		}, layerHTTP},
		{"nothing known", []frame{{"runtime.sigprof", "runtime/proc.go"}}, layerUnmatched},
	} {
		if got := layerOf(c.frames); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestReasons(t *testing.T) {
	m := map[string]float64{"algorithms.cpu_s": 2, "sim.cpu_s": 1, "profile.cpu_s": 4, "layers.unattributed_share": 0.01}
	if !largest("algorithms.cpu_s").ok(m) || largest("sim.cpu_s").ok(m) {
		t.Error("largest ignores which layer has the most CPU")
	}
	m["layers.unattributed_share"] = 0.06
	if attributed.ok(m) {
		t.Error("attributed holds with 6% of CPU unattributed")
	}
}

func TestCovered(t *testing.T) {
	spans := []span{{start: 0, end: 4}, {start: 2, end: 6}, {start: 8, end: 20}}
	if got := covered(1, 10, spans); got != 7 {
		t.Errorf("covered = %v, want 7 (5 from the overlapping pair, 2 clipped)", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := beyond(xs, 2.5); got != 2 {
		t.Errorf("beyond = %v, want 2", got)
	}
}
