package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files")

// quickRun is one experiment's quick-mode result and the number of
// simulator events it took.
type quickRun struct {
	res    *Result
	events uint64
	err    error
}

// quickRuns memoises runQuick, so the golden and smoke tests simulate each
// experiment once per test binary rather than once each.
var quickRuns = map[string]quickRun{}

// runQuick runs experiment id in quick mode (seed 1, 2 runs), or returns the
// memoised run. Callers must not be parallel: sim.TotalEvents is
// process-wide, so the event count is only this run's while nothing else
// simulates.
func runQuick(t *testing.T, id string) (*Result, uint64) {
	t.Helper()
	q, ok := quickRuns[id]
	if !ok {
		ev0 := sim.TotalEvents()
		r, err := Run(id, Options{Seed: 1, Runs: 2, Quick: true})
		q = quickRun{res: r, events: sim.TotalEvents() - ev0, err: err}
		quickRuns[id] = q
	}
	if q.err != nil {
		t.Fatal(q.err)
	}
	return q.res, q.events
}

// TestGoldenTables is an absolute anchor: every registered experiment's
// quick-mode tables, and the number of simulator events they took, must
// equal testdata/golden/<id>.txt byte for byte. Determinism tests elsewhere
// only compare one configuration with another (serial with parallel,
// stepped accessors with their goroutine reference), so a change that moves
// both the same way shows up here and nowhere else. Regenerate deliberately
// with -update.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			r, events := runQuick(t, id)
			got := fmt.Sprintf("%ssim_events %d\n", r.String(), events)
			path := filepath.Join("testdata", "golden", id+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from %s\ngot:\n%s\nwant:\n%s", id, path, got, want)
			}
		})
	}
}

// TestAllExperimentsQuick checks that every experiment's quick-mode run
// yields at least one table, every table with rows and a rendered header.
// It shares TestGoldenTables' runs through runQuick.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			r, _ := runQuick(t, id)
			if len(r.Tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tab := range r.Tables {
				if len(tab.Rows) == 0 {
					t.Errorf("table %q has no rows", tab.Title)
				}
				if !strings.Contains(tab.String(), tab.Columns[0]) {
					t.Errorf("table %q: rendering lost the header", tab.Title)
				}
			}
		})
	}
}
