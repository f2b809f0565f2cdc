package experiments

import (
	"testing"

	"repro/internal/machine"
)

func TestIDsComplete(t *testing.T) {
	want := []string{"engine", "ext1", "ext2", "ext3", "ext4", "fig1", "fig2", "fig3",
		"fig4", "fig5", "fig6", "fig7", "runner", "table2", "table3", "table4"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
	for _, id := range got {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id should error")
	}
}

func TestCalibrationSane(t *testing.T) {
	mc := Calibrate(machine.DefaultNet(), 1, 1)
	// The observed put gap must sit an order of magnitude above the 3 c/B
	// hardware gap but below 100 c/B (paper: 35 c/B).
	if mc.PutGapPB < 10 || mc.PutGapPB > 100 {
		t.Errorf("put gap = %.1f c/B, want ~35", mc.PutGapPB)
	}
	if mc.GetGapPB < mc.PutGapPB*0.5 {
		t.Errorf("bulk get gap = %.1f c/B suspiciously below put %.1f", mc.GetGapPB, mc.PutGapPB)
	}
	// Word-granularity gets are much more expensive than bulk (paper: 287
	// vs 35 c/B; ours carries an 8-byte index per word).
	if mc.GetWordGapPB < 1.5*mc.GetGapPB {
		t.Errorf("word-grain get gap = %.1f c/B, want well above bulk %.1f", mc.GetWordGapPB, mc.GetGapPB)
	}
	// The 16-node per-phase cost must be within 2x of the paper's L=25500.
	if mc.LBarrier < 12000 || mc.LBarrier > 102000 {
		t.Errorf("L = %.0f cycles, want within ~2x of 25500", mc.LBarrier)
	}
}

func TestCalibDerivation(t *testing.T) {
	mc := MachineCalib{PutGapPB: 30, GetGapPB: 40, GetWordGapPB: 80, PutWordGapPB: 60,
		Net: machine.DefaultNet()}
	c := mc.Calib(16)
	if c.GWord != 8*35 {
		t.Errorf("GWord = %g, want 280", c.GWord)
	}
	s := mc.ScatterCalib(16)
	if s.GWord != 8*70 {
		t.Errorf("scatter GWord = %g, want 560", s.GWord)
	}
	if c.P != 16 || c.Lat != 1600 || c.O != 400 {
		t.Errorf("calib params wrong: %+v", c)
	}
}

// TestFig2Convergence verifies the paper's central quantitative claim on our
// substrate: the QSM estimate for sample sort lands within 15% of measured
// communication at n = 131072 (paper: within 10% for n >= 125000).
func TestFig2Convergence(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	net := machine.DefaultNet()
	mc := Calibrate(net, 1, 4)
	c := mc.Calib(defaultP)
	sr := runSort(net, 131072, defaultP, 3, 1, 3)
	est := c.SortQSMComm(131072, oversample, sortSkewOf(sr))
	ratio := est / sr.Comm
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("QSM estimate / measured = %.3f at n=131072, want within 15%%", ratio)
	}
}

// TestFig1Flat verifies prefix communication is independent of n while the
// QSM prediction underestimates it (overhead- and latency-dominated).
func TestFig1Flat(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	net := machine.DefaultNet()
	small := runPrefix(net, 16384, defaultP, 2, 1, 2)
	large := runPrefix(net, 1048576, defaultP, 2, 1, 2)
	if rel := large.Comm / small.Comm; rel > 1.2 || rel < 0.8 {
		t.Errorf("prefix comm changed %.2fx from 16k to 1M; paper: flat", rel)
	}
	mc := Calibrate(net, 1, 4)
	qsm := mc.Calib(defaultP).PrefixQSMComm()
	if qsm > small.Comm/5 {
		t.Errorf("QSM prediction %.0f not far below measured %.0f", qsm, small.Comm)
	}
}
