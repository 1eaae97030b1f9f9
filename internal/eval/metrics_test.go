package eval

import (
	"math"
	"testing"

	"blinkradar/internal/core"
	"blinkradar/internal/physio"
)

func blink(start, dur float64) physio.Blink {
	return physio.Blink{Start: start, Duration: dur}
}

func det(t float64) core.BlinkEvent { return core.BlinkEvent{Time: t} }

func TestMatchBasics(t *testing.T) {
	truth := []physio.Blink{blink(1, 0.2), blink(5, 0.2), blink(9, 0.2)}
	detected := []core.BlinkEvent{det(1.1), det(5.3), det(20)}
	m := Match(truth, detected, 0.5)
	if m.TruePositives != 2 || m.FalseNegatives != 1 || m.FalsePositives != 1 {
		t.Fatalf("TP/FN/FP = %d/%d/%d, want 2/1/1", m.TruePositives, m.FalseNegatives, m.FalsePositives)
	}
	if m.Missed[0] || m.Missed[1] || !m.Missed[2] {
		t.Fatalf("missed flags %v", m.Missed)
	}
	if acc := m.Accuracy(); math.Abs(acc-2.0/3) > 1e-12 {
		t.Fatalf("accuracy %g", acc)
	}
	if p := m.Precision(); math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("precision %g", p)
	}
	if f1 := m.F1(); math.Abs(f1-2.0/3) > 1e-12 {
		t.Fatalf("F1 %g", f1)
	}
}

func TestMatchOneDetectionPerBlink(t *testing.T) {
	// Two detections near one blink: only one may match.
	truth := []physio.Blink{blink(5, 0.3)}
	detected := []core.BlinkEvent{det(5.0), det(5.3)}
	m := Match(truth, detected, 0.5)
	if m.TruePositives != 1 || m.FalsePositives != 1 {
		t.Fatalf("TP/FP = %d/%d, want 1/1", m.TruePositives, m.FalsePositives)
	}
}

func TestMatchNearestWins(t *testing.T) {
	// One detection between two blinks matches the nearer blink.
	truth := []physio.Blink{blink(4.0, 0.2), blink(5.0, 0.2)}
	detected := []core.BlinkEvent{det(4.9)}
	m := Match(truth, detected, 0.75)
	if m.TruePositives != 1 {
		t.Fatalf("TP %d, want 1", m.TruePositives)
	}
	if m.Missed[1] || !m.Missed[0] {
		t.Fatalf("nearest-match flags %v, want the farther blink missed", m.Missed)
	}
}

func TestMatchDefaults(t *testing.T) {
	truth := []physio.Blink{blink(1, 0.2)}
	// Tolerance <= 0 selects the default.
	m := Match(truth, []core.BlinkEvent{det(1 + DefaultMatchTolerance)}, 0)
	if m.TruePositives != 1 {
		t.Fatal("default tolerance not applied")
	}
}

func TestMatchEmpty(t *testing.T) {
	m := Match(nil, nil, 0.5)
	if m.Accuracy() != 1 || m.Precision() != 1 {
		t.Fatal("empty match must score perfect")
	}
	if m.F1() != 1 {
		t.Fatal("empty F1 must be 1")
	}
}

func TestTrimWarmup(t *testing.T) {
	truth := []physio.Blink{blink(2, 0.2), blink(14.9, 0.2), blink(15, 0.2), blink(40, 0.2)}
	got := TrimWarmup(truth, 15)
	if len(got) != 2 || got[0].Start != 15 {
		t.Fatalf("trimmed %v", got)
	}
}

func TestCountRunsAndRates(t *testing.T) {
	var s MissRunStats
	CountRuns(&s, []bool{false, true, false, true, true, false})
	CountRuns(&s, []bool{true})
	// Runs: one of length 1, one of length 2, one of length 1 (second
	// capture; runs must not bridge captures).
	if s.Total != 7 {
		t.Fatalf("total %d, want 7", s.Total)
	}
	if s.Runs[0] != 2 || s.Runs[1] != 1 {
		t.Fatalf("runs %v, want [2 1]", s.Runs)
	}
	if got := s.RateOfRunLength(1); math.Abs(got-2.0/7) > 1e-12 {
		t.Fatalf("rate(1) %g", got)
	}
	if got := s.RateOfRunLength(2); math.Abs(got-2.0/7) > 1e-12 {
		t.Fatalf("rate(2) %g", got)
	}
	if s.RateOfRunLength(3) != 0 || s.RateOfRunLength(0) != 0 {
		t.Fatal("out-of-range run rates must be 0")
	}
}

func TestCDF(t *testing.T) {
	c, err := NewCDF([]float64{0.9, 0.7, 1.0, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	xs, ps := c.Points()
	wantX := []float64{0.7, 0.8, 0.9, 1.0}
	wantP := []float64{0.25, 0.5, 0.75, 1}
	if len(xs) != 4 || len(ps) != 4 {
		t.Fatalf("points %v %v", xs, ps)
	}
	for i := range wantX {
		if xs[i] != wantX[i] || ps[i] != wantP[i] {
			t.Fatalf("points %v %v, want %v %v", xs, ps, wantX, wantP)
		}
	}
	if _, err := NewCDF(nil); err == nil {
		t.Fatal("empty CDF must be rejected")
	}
}
