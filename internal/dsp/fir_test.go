package dsp

import (
	"math"
	"math/cmplx"
	"testing"
)

func TestLowPassFIRDesignErrors(t *testing.T) {
	cases := []struct {
		name   string
		order  int
		cutoff float64
	}{
		{"zero order", 0, 0.2},
		{"negative order", -4, 0.2},
		{"zero cutoff", 10, 0},
		{"cutoff beyond nyquist", 10, 0.6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := LowPassFIR(tc.order, tc.cutoff); err == nil {
				t.Fatalf("expected error for order=%d cutoff=%g", tc.order, tc.cutoff)
			}
		})
	}
}

func TestLowPassFIRResponse(t *testing.T) {
	fir, err := LowPassFIR(26, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if order := len(fir.taps) - 1; order != 26 {
		t.Fatalf("order %d, want 26", order)
	}
	// Unity DC gain by construction.
	if dc := cmplx.Abs(fir.FrequencyResponse(0)); !approxEqual(dc, 1, 1e-9) {
		t.Fatalf("DC gain %g, want 1", dc)
	}
	// Passband nearly flat, stopband well attenuated.
	if g := cmplx.Abs(fir.FrequencyResponse(0.02)); g < 0.9 {
		t.Errorf("passband gain %g at 0.02, want > 0.9", g)
	}
	if g := cmplx.Abs(fir.FrequencyResponse(0.4)); g > 0.05 {
		t.Errorf("stopband gain %g at 0.4, want < 0.05", g)
	}
}

func TestFIRApplyDelayCompensated(t *testing.T) {
	// A filtered impulse must peak at the impulse position, not
	// shifted by the group delay.
	fir, err := LowPassFIR(26, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 101)
	x[50] = 1
	y := fir.Apply(x)
	if len(y) != len(x) {
		t.Fatalf("output length %d, want %d", len(y), len(x))
	}
	if peak := ArgMax(y); peak != 50 {
		t.Fatalf("impulse response peak at %d, want 50", peak)
	}
}

func TestFIRApplyConstant(t *testing.T) {
	// Unity-DC low-pass passes a constant unchanged (away from edges
	// it is exact; replicated edges keep it exact everywhere).
	fir, err := LowPassFIR(16, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 60)
	for i := range x {
		x[i] = 2.5
	}
	for i, v := range fir.Apply(x) {
		if !approxEqual(v, 2.5, 1e-9) {
			t.Fatalf("sample %d = %g, want 2.5", i, v)
		}
	}
}

func TestFIRApplyIntoMatchesApply(t *testing.T) {
	fir, err := LowPassFIR(14, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	for i := range x {
		x[i] = math.Sin(float64(i) / 4)
	}
	dst := make([]float64, len(x))
	if err := fir.ApplyInto(dst, x); err != nil {
		t.Fatal(err)
	}
	for i, v := range fir.Apply(x) {
		if dst[i] != v {
			t.Fatalf("sample %d = %g, want %g", i, dst[i], v)
		}
	}
	// The Into variant is allocation-free.
	allocs := testing.AllocsPerRun(100, func() {
		fir.ApplyInto(dst, x)
	})
	if allocs != 0 {
		t.Fatalf("ApplyInto allocates %.1f objects/run, want 0", allocs)
	}
}

func TestFIRApplyIntoErrors(t *testing.T) {
	fir, err := LowPassFIR(8, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 10)
	if err := fir.ApplyInto(make([]float64, 9), x); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if err := fir.ApplyInto(x, x); err == nil {
		t.Fatal("aliased destination must be rejected")
	}
	// Empty inputs are a no-op, not an error.
	if err := fir.ApplyInto(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewFIRFilter(t *testing.T) {
	if _, err := NewFIRFilter(nil); err == nil {
		t.Fatal("empty taps must be rejected")
	}
	taps := []float64{0.5, 0.5}
	f, err := NewFIRFilter(taps)
	if err != nil {
		t.Fatal(err)
	}
	taps[0] = 99 // caller mutation must not leak in
	if f.taps[0] != 0.5 {
		t.Fatalf("taps not copied: %v", f.taps)
	}
}
