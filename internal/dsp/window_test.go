package dsp

import (
	"testing"
	"testing/quick"
)

func TestWindowLengths(t *testing.T) {
	for _, w := range []func(int) []float64{Hamming, Hann} {
		for _, n := range []int{0, 1, 2, 7, 64} {
			got := w(n)
			if len(got) != max(n, 0) {
				t.Fatalf("window length %d for n=%d", len(got), n)
			}
		}
	}
}

func TestWindowSymmetryProperty(t *testing.T) {
	// All supported windows are symmetric: w[i] == w[n-1-i].
	windows := map[string]func(int) []float64{
		"hamming": Hamming,
		"hann":    Hann,
	}
	for name, w := range windows {
		f := func(raw uint8) bool {
			n := int(raw)%60 + 2
			win := w(n)
			for i := 0; i < n/2; i++ {
				if !approxEqual(win[i], win[n-1-i], 1e-12) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s asymmetric: %v", name, err)
		}
	}
}

func TestHammingEndpoints(t *testing.T) {
	w := Hamming(27)
	if !approxEqual(w[0], 0.08, 1e-12) {
		t.Errorf("Hamming start %g, want 0.08", w[0])
	}
	if !approxEqual(w[13], 1, 1e-12) {
		t.Errorf("Hamming midpoint %g, want 1", w[13])
	}
}

func TestHannEndpoints(t *testing.T) {
	w := Hann(11)
	if !approxEqual(w[0], 0, 1e-12) || !approxEqual(w[10], 0, 1e-12) {
		t.Errorf("Hann endpoints %g, %g, want 0", w[0], w[10])
	}
}

func TestSinglePointWindows(t *testing.T) {
	for _, w := range []func(int) []float64{Hamming, Hann} {
		if got := w(1); len(got) != 1 || got[0] != 1 {
			t.Fatalf("single-point window = %v, want [1]", got)
		}
	}
}
