package membank

import (
	"testing"
)

func TestConflictMuchWorseThanNoConflict(t *testing.T) {
	for _, cfg := range AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			nc := Run(cfg, NoConflict, 300, 1)
			cf := Run(cfg, Conflict, 300, 1)
			ratio := cf.AvgCycles / nc.AvgCycles
			// On the shared-Ethernet NOW the medium saturates before the
			// hot bank does, flattening the patterns (the "0%" end of the
			// paper's spread); everywhere else the hot spot must cost 2x+.
			want := 1.8
			if cfg.SharedMedium {
				want = 1.15
			}
			if ratio < want {
				t.Errorf("Conflict/NoConflict = %.2f, want >= %.2f (paper: 2-4x)", ratio, want)
			}
		})
	}
}

func TestRandomNearNoConflict(t *testing.T) {
	// The paper: NoConflict beats Random by 0%-68%; randomization must stay
	// within about 2x of ideal on every architecture.
	for _, cfg := range AllConfigs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			nc := Run(cfg, NoConflict, 300, 1)
			rnd := Run(cfg, Random, 300, 1)
			ratio := rnd.AvgCycles / nc.AvgCycles
			if ratio < 0.95 || ratio > 2.1 {
				t.Errorf("Random/NoConflict = %.2f, want in [1, ~2]", ratio)
			}
		})
	}
}

func TestRandomBetterThanConflict(t *testing.T) {
	for _, cfg := range AllConfigs() {
		rnd := Run(cfg, Random, 300, 1)
		cf := Run(cfg, Conflict, 300, 1)
		if rnd.AvgCycles*1.05 >= cf.AvgCycles {
			t.Errorf("%s: Random (%.0f) not clearly faster than Conflict (%.0f)",
				cfg.Name, rnd.AvgCycles, cf.AvgCycles)
		}
	}
}

func TestConflictSaturatesHotBank(t *testing.T) {
	cfg := SMPNative()
	r := Run(cfg, Conflict, 500, 2)
	if r.MaxBankUtil < 0.9 {
		t.Errorf("hot bank utilisation = %.2f, want near 1", r.MaxBankUtil)
	}
}

func TestDeterministic(t *testing.T) {
	a := Run(SMPNative(), Random, 200, 7)
	b := Run(SMPNative(), Random, 200, 7)
	if a.AvgCycles != b.AvgCycles {
		t.Error("not deterministic")
	}
	c := Run(SMPNative(), Random, 200, 8)
	if a.AvgCycles == c.AvgCycles {
		t.Error("different seeds gave identical averages (suspicious)")
	}
}

func TestBSPlibSlowerThanNative(t *testing.T) {
	nat := Run(SMPNative(), Random, 300, 1)
	l2 := Run(SMPBSPlib2(), Random, 300, 1)
	l1 := Run(SMPBSPlib1(), Random, 300, 1)
	if !(nat.AvgCycles < l2.AvgCycles && l2.AvgCycles < l1.AvgCycles) {
		t.Errorf("want native (%.0f) < L2 (%.0f) < L1 (%.0f)",
			nat.AvgCycles, l2.AvgCycles, l1.AvgCycles)
	}
}

func TestNOWDominatedBySoftware(t *testing.T) {
	// On the Ethernet NOW the per-access software cost is so large that
	// even NoConflict accesses are hundreds of microseconds.
	r := Run(NOWBSPlib(), NoConflict, 100, 1)
	if us := r.AvgMicros(); us < 100 {
		t.Errorf("NOW access = %.1f us, want > 100 us", us)
	}
}

func TestAvgMicros(t *testing.T) {
	r := Result{Config: Config{ClockMHz: 100}, AvgCycles: 500}
	if r.AvgMicros() != 5 {
		t.Errorf("AvgMicros = %g, want 5", r.AvgMicros())
	}
	r.Config.ClockMHz = 0
	if r.AvgMicros() != 0 {
		t.Error("zero clock should give 0")
	}
}

func TestRunAllCoversPatterns(t *testing.T) {
	rs := RunAll(CrayT3E(), 100, 3)
	if len(rs) != 3 {
		t.Fatalf("got %d results", len(rs))
	}
	seen := map[Pattern]bool{}
	for _, r := range rs {
		seen[r.Pattern] = true
	}
	if !seen[Random] || !seen[Conflict] || !seen[NoConflict] {
		t.Error("patterns missing")
	}
}

func BenchmarkMembankRandom(b *testing.B) {
	cfg := SMPNative()
	for i := 0; i < b.N; i++ {
		Run(cfg, Random, 100, int64(i))
	}
}
