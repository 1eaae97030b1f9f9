package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refCascade64 is the sequential float64 oracle: the unfolded
// direct-form FIR followed by the running-sum moving average.
func refCascade64(t *testing.T, x []float64) []float64 {
	t.Helper()
	fir, err := LowPassFIR(cascadeOrder, cascadeCutoff)
	if err != nil {
		t.Fatal(err)
	}
	mid := make([]float64, len(x))
	if err := fir.ApplyInto(mid, x); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(x))
	if err := runningSumMovingAverage(out, mid, cascadeSmooth); err != nil {
		t.Fatal(err)
	}
	return out
}

func randSeries(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// maxScale returns a per-series magnitude floor for relative error
// checks: |x| can pass through zero, so errors are measured relative to
// the series' peak magnitude rather than pointwise.
func maxScale(x []float64) float64 {
	s := 1e-30
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

func TestFoldedFIRMatchesReference(t *testing.T) {
	fir, err := LowPassFIR(cascadeOrder, cascadeCutoff)
	if err != nil {
		t.Fatal(err)
	}
	folded := FoldedLowPass()
	for _, n := range []int{1, 2, 5, 13, 26, 27, 28, 64, 500} {
		x := randSeries(int64(n*100+cascadeOrder), n)
		want := make([]float64, n)
		got := make([]float64, n)
		if err := fir.ApplyInto(want, x); err != nil {
			t.Fatal(err)
		}
		if err := folded.ApplyInto(got, x); err != nil {
			t.Fatal(err)
		}
		scale := maxScale(want)
		for i := range want {
			if rel := math.Abs(got[i]-want[i]) / scale; rel > 1e-12 {
				t.Fatalf("n=%d sample %d: folded %g vs reference %g (rel %g)",
					n, i, got[i], want[i], rel)
			}
		}
	}
}

func TestFusedCascadeMatchesSequential64(t *testing.T) {
	// One cascade across every length: its scratch grows and is reused.
	c := NewFusedCascade()
	for _, n := range []int{1, 10, 49, 50, 128, 2048, 27} {
		x := randSeries(int64(n+cascadeSmooth), n)
		want := refCascade64(t, x)
		got := make([]float64, n)
		if err := c.ApplyInto(got, x); err != nil {
			t.Fatal(err)
		}
		scale := maxScale(want)
		for i := range want {
			if rel := math.Abs(got[i]-want[i]) / scale; rel > 1e-12 {
				t.Fatalf("n=%d sample %d: fused %g vs sequential %g (rel %g)",
					n, i, got[i], want[i], rel)
			}
		}
	}
}

func TestFusedCascadeAliasing(t *testing.T) {
	// dst must not alias x: the cascade keeps dsp's Into contract.
	c := NewFusedCascade()
	buf := randSeries(9, 400)
	if err := c.ApplyInto(buf, buf); err == nil {
		t.Fatal("aliased ApplyInto must be rejected")
	}
	// FoldedFIR alone rejects aliasing too, like FIRFilter.
	if err := FoldedLowPass().ApplyInto(buf, buf); err == nil {
		t.Fatal("FoldedFIR.ApplyInto must reject aliasing")
	}
}

func TestFusedCascadeAllocFree(t *testing.T) {
	c := NewFusedCascade()
	x := randSeries(5, 2048)
	dst := make([]float64, len(x))
	if allocs := testing.AllocsPerRun(50, func() {
		if err := c.ApplyInto(dst, x); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ApplyInto allocates %.1f objects/run, want 0", allocs)
	}
}

func TestFusedCascadeErrors(t *testing.T) {
	c := NewFusedCascade()
	if err := c.ApplyInto(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if err := c.ApplyInto(nil, nil); err != nil {
		t.Fatalf("empty input must be a no-op, got %v", err)
	}
}

// FuzzFusedCascade drives random series through the cascade and checks
// it against the sequential float64 oracle within fold-average and
// prefix-sum rounding, for arbitrary lengths.
func FuzzFusedCascade(f *testing.F) {
	f.Add(int64(1), uint8(128))
	f.Add(int64(2), uint8(3))
	f.Add(int64(3), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := int(nRaw)
		if n == 0 {
			return
		}
		x := randSeries(seed, n)
		want := refCascade64(t, x)
		got := make([]float64, n)
		if err := NewFusedCascade().ApplyInto(got, x); err != nil {
			t.Fatal(err)
		}
		// The rounding budget is relative to the INPUT scale: the
		// smoother can cancel the output to far below max|x| (e.g.
		// n=27 — regression corpus 722c17465a77c9b7), where an
		// output-relative bound would spuriously amplify a fixed
		// absolute error.
		scale := math.Max(maxScale(want), maxScale(x))
		for i := range want {
			if rel := math.Abs(got[i]-want[i]) / scale; rel > 1e-12 {
				t.Fatalf("n=%d sample %d: fused %g vs oracle %g (rel %g)",
					n, i, got[i], want[i], rel)
			}
		}
	})
}
