package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLocalExtremaAlternationProperty(t *testing.T) {
	// The extrema sequence must strictly alternate max/min for any
	// input.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, 5+rng.Intn(200))
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ext := LocalExtrema(x)
		for i := 1; i < len(ext); i++ {
			if ext[i].Max == ext[i-1].Max {
				return false
			}
			if ext[i].Index <= ext[i-1].Index {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLocalExtremaKnown(t *testing.T) {
	x := []float64{0, 1, 2, 1, 0, -1, 0, 1}
	ext := LocalExtrema(x)
	if len(ext) != 2 {
		t.Fatalf("got %d extrema, want 2: %v", len(ext), ext)
	}
	if !ext[0].Max || ext[0].Index != 2 || ext[0].Value != 2 {
		t.Fatalf("first extremum %+v, want max 2@2", ext[0])
	}
	if ext[1].Max || ext[1].Index != 5 || ext[1].Value != -1 {
		t.Fatalf("second extremum %+v, want min -1@5", ext[1])
	}
}

func TestLocalExtremaPlateau(t *testing.T) {
	x := []float64{0, 2, 2, 2, 0}
	ext := LocalExtrema(x)
	if len(ext) != 1 || !ext[0].Max || ext[0].Index != 2 {
		t.Fatalf("plateau extrema %+v, want single max at midpoint 2", ext)
	}
}

func TestLocalExtremaTooShort(t *testing.T) {
	if got := LocalExtrema([]float64{1, 2}); got != nil {
		t.Fatalf("short input extrema %v, want nil", got)
	}
}

func TestFindPeaksProminence(t *testing.T) {
	// Two clear peaks over a flat floor; a tiny wiggle must be
	// filtered by the prominence threshold.
	x := make([]float64, 100)
	addBump := func(pos int, amp float64) {
		for i := range x {
			d := float64(i-pos) / 3
			x[i] += amp * math.Exp(-0.5*d*d)
		}
	}
	addBump(25, 1.0)
	addBump(70, 0.8)
	addBump(50, 0.02)
	peaks := FindPeaks(x, 0.1, 5)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks, want 2: %+v", len(peaks), peaks)
	}
	if peaks[0].Index != 25 || peaks[1].Index != 70 {
		t.Fatalf("peak positions %d, %d, want 25, 70", peaks[0].Index, peaks[1].Index)
	}
}

func TestFindPeaksMinDistance(t *testing.T) {
	// Two close peaks: the taller one wins under the separation rule.
	x := make([]float64, 60)
	for i := range x {
		d1 := float64(i-20) / 2
		d2 := float64(i-26) / 2
		x[i] = math.Exp(-0.5*d1*d1) + 0.7*math.Exp(-0.5*d2*d2)
	}
	peaks := FindPeaks(x, 0.05, 15)
	if len(peaks) != 1 {
		t.Fatalf("got %d peaks, want 1 after suppression: %+v", len(peaks), peaks)
	}
	if got := peaks[0].Index; got < 19 || got > 22 {
		t.Fatalf("surviving peak at %d, want the taller one near 20", got)
	}
}
