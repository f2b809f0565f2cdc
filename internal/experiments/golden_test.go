package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden files")

// goldenIDs are the experiments whose quick-mode output is pinned in
// testdata/golden/<id>.txt.
var goldenIDs = []string{"fig2", "fig4"}

// TestGoldenTables is an absolute anchor: the quick-mode tables of each
// golden experiment, and the number of simulator events they took, must
// equal the committed file byte for byte. Determinism tests elsewhere only
// compare one mode with another, so a change that moves every mode the same
// way shows up here and nowhere else. Regenerate deliberately with -update.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweeps in -short mode")
	}
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			// Not parallel: sim.TotalEvents is process-wide, so the event
			// count is only this run's while nothing else simulates.
			ev0 := sim.TotalEvents()
			r, err := Run(id, Options{Seed: 1, Runs: 2, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%ssim_events %d\n", r.String(), sim.TotalEvents()-ev0)
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
