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
	if fir.Order() != 26 {
		t.Fatalf("order %d, want 26", fir.Order())
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

func TestHighPassFIRBlocksDC(t *testing.T) {
	fir, err := HighPassFIR(26, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if g := cmplx.Abs(fir.FrequencyResponse(0)); g > 1e-6 {
		t.Errorf("DC gain %g, want ~0", g)
	}
	if g := cmplx.Abs(fir.FrequencyResponse(0.45)); g < 0.9 {
		t.Errorf("high-frequency gain %g, want > 0.9", g)
	}
	if _, err := HighPassFIR(25, 0.2); err == nil {
		t.Error("odd order must be rejected")
	}
}

func TestBandPassFIR(t *testing.T) {
	fir, err := BandPassFIR(40, 0.1, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	centre := cmplx.Abs(fir.FrequencyResponse(0.15))
	if !approxEqual(centre, 1, 0.05) {
		t.Errorf("centre gain %g, want ~1", centre)
	}
	if g := cmplx.Abs(fir.FrequencyResponse(0.01)); g > 0.1 {
		t.Errorf("low stopband gain %g, want < 0.1", g)
	}
	if g := cmplx.Abs(fir.FrequencyResponse(0.4)); g > 0.1 {
		t.Errorf("high stopband gain %g, want < 0.1", g)
	}
	if _, err := BandPassFIR(40, 0.3, 0.2, nil); err == nil {
		t.Error("inverted band must be rejected")
	}
	if _, err := BandPassFIR(41, 0.1, 0.2, nil); err == nil {
		t.Error("odd order must be rejected")
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

func TestFIRApplyComplexMatchesParts(t *testing.T) {
	fir, err := LowPassFIR(12, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, 40)
	re := make([]float64, len(x))
	im := make([]float64, len(x))
	for i := range x {
		re[i] = math.Sin(float64(i) / 3)
		im[i] = math.Cos(float64(i) / 5)
		x[i] = complex(re[i], im[i])
	}
	got := fir.ApplyComplex(x)
	wantRe := fir.Apply(re)
	wantIm := fir.Apply(im)
	for i := range got {
		if !approxEqual(real(got[i]), wantRe[i], 1e-12) || !approxEqual(imag(got[i]), wantIm[i], 1e-12) {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

func TestFIRApplyIntoMatchesApply(t *testing.T) {
	fir, err := LowPassFIR(14, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	cx := make([]complex128, 64)
	for i := range x {
		x[i] = math.Sin(float64(i) / 4)
		cx[i] = complex(x[i], math.Cos(float64(i)/7))
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
	cdst := make([]complex128, len(cx))
	if err := fir.ApplyComplexInto(cdst, cx); err != nil {
		t.Fatal(err)
	}
	for i, v := range fir.ApplyComplex(cx) {
		if cdst[i] != v {
			t.Fatalf("complex sample %d = %v, want %v", i, cdst[i], v)
		}
	}
	// The Into variants are the allocation-free hot path.
	allocs := testing.AllocsPerRun(100, func() {
		fir.ApplyInto(dst, x)
		fir.ApplyComplexInto(cdst, cx)
	})
	if allocs != 0 {
		t.Fatalf("Into variants allocate %.1f objects/run, want 0", allocs)
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
	cx := make([]complex128, 10)
	if err := fir.ApplyComplexInto(make([]complex128, 9), cx); err == nil {
		t.Fatal("complex length mismatch must be rejected")
	}
	if err := fir.ApplyComplexInto(cx, cx); err == nil {
		t.Fatal("complex aliased destination must be rejected")
	}
	// Empty inputs are a no-op, not an error.
	if err := fir.ApplyInto(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := fir.ApplyComplexInto(nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFIRStreamDelay(t *testing.T) {
	fir, err := LowPassFIR(26, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	s := fir.Stream()
	if s.Delay() != 13 {
		t.Fatalf("order-26 stream delay %d, want 13", s.Delay())
	}
	// An impulse pushed through the causal stream peaks Delay() samples
	// later — the lag Delay() promises to consumers.
	peakAt, peakVal := -1, 0.0
	for i := 0; i < 60; i++ {
		in := 0.0
		if i == 20 {
			in = 1
		}
		if out := s.Push(in); out > peakVal {
			peakVal, peakAt = out, i
		}
	}
	if peakAt != 20+s.Delay() {
		t.Fatalf("stream impulse peak at %d, want %d", peakAt, 20+s.Delay())
	}
}

func TestFIRStreamSteadyState(t *testing.T) {
	// After the delay line fills, the streaming filter's output on a
	// constant input equals the DC gain.
	fir, err := LowPassFIR(10, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	s := fir.Stream()
	var last float64
	for i := 0; i < 50; i++ {
		last = s.Push(3)
	}
	if !approxEqual(last, 3, 1e-9) {
		t.Fatalf("steady state %g, want 3", last)
	}
	s.Reset()
	if out := s.Push(3); approxEqual(out, 3, 1e-9) {
		t.Fatal("reset stream should not instantly reach steady state")
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
