package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMovingAverageErrors(t *testing.T) {
	if _, err := MovingAverage([]float64{1}, 0); err == nil {
		t.Fatal("zero window must be rejected")
	}
	if _, err := MovingAverage([]float64{1}, -3); err == nil {
		t.Fatal("negative window must be rejected")
	}
}

func TestMovingAverageIdentity(t *testing.T) {
	x := []float64{3, 1, 4, 1, 5}
	got, err := MovingAverage(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("window 1 not identity at %d", i)
		}
	}
}

func TestMovingAverageConstantProperty(t *testing.T) {
	// Smoothing a constant signal returns the constant, any window.
	f := func(seed int64, rawWin uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := rng.NormFloat64()
		n := 1 + rng.Intn(100)
		win := int(rawWin)%20 + 1
		x := make([]float64, n)
		for i := range x {
			x[i] = c
		}
		out, err := MovingAverage(x, win)
		if err != nil {
			return false
		}
		for _, v := range out {
			if !approxEqual(v, c, 1e-9*(1+math.Abs(c))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMovingAverageKnown(t *testing.T) {
	got, err := MovingAverage([]float64{0, 3, 6}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Edges shrink symmetrically: [mean(0,3), mean(0,3,6), mean(3,6)].
	want := []float64{1.5, 3, 4.5}
	for i := range want {
		if !approxEqual(got[i], want[i], floatTol) {
			t.Fatalf("index %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestMovingAverageIntoMatchesMovingAverage(t *testing.T) {
	// The Into form with caller scratch is MovingAverage's arithmetic
	// exactly, agrees with the running-sum oracle to rounding for any
	// signal and window, and allocates nothing.
	f := func(seed int64, rawWin uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		win := int(rawWin)%60 + 1
		x := make([]float64, n)
		var scale float64
		for i := range x {
			x[i] = rng.NormFloat64() * 10
			if a := math.Abs(x[i]); a > scale {
				scale = a
			}
		}
		want, err := MovingAverage(x, win)
		if err != nil {
			return false
		}
		oracle := make([]float64, n)
		if err := runningSumMovingAverage(oracle, x, win); err != nil {
			return false
		}
		dst := make([]float64, n)
		// Oversized scratch is allowed: only the first n+1 slots are used.
		if err := MovingAverageInto(dst, x, make([]float64, n+3), win); err != nil {
			return false
		}
		for i := range want {
			if dst[i] != want[i] || !approxEqual(dst[i], oracle[i], 1e-9*(1+scale)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 256)
	dst := make([]float64, 256)
	prefix := make([]float64, 257)
	allocs := testing.AllocsPerRun(100, func() {
		MovingAverageInto(dst, x, prefix, 50)
	})
	if allocs != 0 {
		t.Fatalf("MovingAverageInto allocates %.1f objects/run, want 0", allocs)
	}
}

func TestMovingAverageIntoErrors(t *testing.T) {
	x := []float64{1, 2, 3}
	prefix := make([]float64, 4)
	if err := MovingAverageInto(make([]float64, 2), x, prefix, 3); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if err := MovingAverageInto(x, x, prefix, 3); err == nil {
		t.Fatal("aliased destination must be rejected")
	}
	if err := MovingAverageInto(make([]float64, 3), x, prefix, 0); err == nil {
		t.Fatal("zero window must be rejected")
	}
	if err := MovingAverageInto(make([]float64, 3), x, prefix[:3], 3); err == nil {
		t.Fatal("scratch shorter than len(x)+1 must be rejected")
	}
	if err := MovingAverageInto(nil, nil, nil, 3); err != nil {
		t.Fatal(err)
	}
}
