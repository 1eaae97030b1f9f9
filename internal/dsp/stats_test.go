package dsp

import (
	"math"
	"testing"
)

func TestMedianPercentile(t *testing.T) {
	x := []float64{5, 1, 3, 2, 4}
	if got := Median(x); got != 3 {
		t.Fatalf("median %g, want 3", got)
	}
	// Input must be untouched.
	if x[0] != 5 {
		t.Fatal("Median mutated its input")
	}
	if got := Percentile(x, 0); got != 1 {
		t.Fatalf("p0 %g, want 1", got)
	}
	if got := Percentile(x, 100); got != 5 {
		t.Fatalf("p100 %g, want 5", got)
	}
	if got := Percentile(x, 25); got != 2 {
		t.Fatalf("p25 %g, want 2", got)
	}
	if got := Percentile([]float64{1, 2}, 50); got != 1.5 {
		t.Fatalf("interpolated median %g, want 1.5", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile %g, want 0", got)
	}
}

func TestMAD(t *testing.T) {
	// Median 3, deviations {2,1,0,1,2} -> MAD 1.
	if got := MAD([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Fatalf("MAD %g, want 1", got)
	}
	// MAD is robust: one huge outlier leaves it at 1.
	if got := MAD([]float64{1, 2, 3, 4, 1e9}); got != 1 {
		t.Fatalf("MAD with outlier %g, want 1", got)
	}
}

func TestMinMaxArgMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = (%g, %g), want (-1, 7)", lo, hi)
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax(nil) should be -1")
	}
	if got := ArgMax([]float64{1, 5, 5, 2}); got != 1 {
		t.Fatalf("ArgMax tie = %d, want first occurrence 1", got)
	}
}

func TestSNRdB(t *testing.T) {
	ref := []float64{1, 1, 1, 1}
	if got := SNRdB(ref, ref); !math.IsInf(got, 1) {
		t.Fatalf("identical signals SNR %g, want +Inf", got)
	}
	noisy := []float64{1.1, 0.9, 1.1, 0.9}
	// P_sig = 1, P_noise = 0.01 -> 20 dB.
	if got := SNRdB(ref, noisy); !approxEqual(got, 20, 1e-9) {
		t.Fatalf("SNR %g, want 20", got)
	}
	if got := SNRdB(nil, noisy); got != 0 {
		t.Fatalf("empty reference SNR %g, want 0", got)
	}
}
