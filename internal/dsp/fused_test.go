package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// refCascade64 is the sequential float64 oracle: the unfolded FIR
// followed by the separate moving average, exactly the pre-fusion
// pipeline.
func refCascade64(t *testing.T, x []float64, order int, cutoff float64, smooth int) []float64 {
	t.Helper()
	fir, err := LowPassFIR(order, cutoff)
	if err != nil {
		t.Fatal(err)
	}
	mid := make([]float64, len(x))
	if err := fir.ApplyInto(mid, x); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(x))
	if err := MovingAverageInto(out, mid, smooth); err != nil {
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
	for _, n := range []int{1, 2, 5, 13, 26, 27, 64, 500} {
		for _, order := range []int{2, 4, 13, 26} {
			fir, err := LowPassFIR(order, 0.04)
			if err != nil {
				t.Fatal(err)
			}
			folded, err := NewFoldedFIR(fir.taps)
			if err != nil {
				t.Fatalf("order %d: %v", order, err)
			}
			x := randSeries(int64(n*100+order), n)
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
					t.Fatalf("n=%d order=%d sample %d: folded %g vs reference %g (rel %g)",
						n, order, i, got[i], want[i], rel)
				}
			}
		}
	}
}

func TestFoldedFIROddOrder(t *testing.T) {
	// Odd order: even tap count, no centre tap. Build an explicitly
	// symmetric tap set.
	taps := []float64{0.1, 0.2, 0.3, 0.3, 0.2, 0.1}
	fir, err := NewFIRFilter(taps)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := NewFoldedFIR(taps)
	if err != nil {
		t.Fatal(err)
	}
	x := randSeries(7, 40)
	want := make([]float64, len(x))
	got := make([]float64, len(x))
	if err := fir.ApplyInto(want, x); err != nil {
		t.Fatal(err)
	}
	if err := folded.ApplyInto(got, x); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sample %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestNewFoldedFIRRejectsAsymmetric(t *testing.T) {
	if _, err := NewFoldedFIR([]float64{1, 2, 3}); err == nil {
		t.Fatal("asymmetric taps must be rejected")
	}
	if _, err := NewFoldedFIR(nil); err == nil {
		t.Fatal("empty taps must be rejected")
	}
}

func TestFusedCascadeMatchesSequential64(t *testing.T) {
	const order, cutoff = 26, 0.04
	for _, smooth := range []int{1, 2, 3, 50, 51} {
		for _, n := range []int{1, 10, 49, 50, 128, 2048} {
			c, err := NewFusedCascade(order, cutoff, smooth)
			if err != nil {
				t.Fatal(err)
			}
			x := randSeries(int64(n+smooth), n)
			want := refCascade64(t, x, order, cutoff, smooth)
			got := make([]float64, n)
			if err := c.ApplyInto(got, x); err != nil {
				t.Fatal(err)
			}
			scale := maxScale(want)
			for i := range want {
				if rel := math.Abs(got[i]-want[i]) / scale; rel > 1e-12 {
					t.Fatalf("smooth=%d n=%d sample %d: fused %g vs sequential %g (rel %g)",
						smooth, n, i, got[i], want[i], rel)
				}
			}
		}
	}
}

func TestFusedCascadeAliasing(t *testing.T) {
	// The FIR stage writes dst while later outputs still read x, so the
	// fused cascade must reject aliasing.
	c, err := NewFusedCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	buf := randSeries(9, 400)
	if err := c.ApplyInto(buf, buf); err == nil {
		t.Fatal("aliased ApplyInto must be rejected")
	}
	// FoldedFIR alone rejects aliasing too, like FIRFilter.
	fir, err := FoldedLowPass(26, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if err := fir.ApplyInto(buf, buf); err == nil {
		t.Fatal("FoldedFIR.ApplyInto must reject aliasing")
	}
}

func TestFusedCascadeAllocFree(t *testing.T) {
	c, err := NewFusedCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
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
	c, err := NewFusedCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyInto(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatal("length mismatch must be rejected")
	}
	if err := c.ApplyInto(nil, nil); err != nil {
		t.Fatalf("empty input must be a no-op, got %v", err)
	}
	if _, err := NewFusedCascade(26, 0.04, 0); err == nil {
		t.Fatal("non-positive smoothing window must be rejected")
	}
	if _, err := NewFusedCascade(0, 0.04, 50); err == nil {
		t.Fatal("bad FIR order must be rejected")
	}
}

// FuzzFusedCascade drives random series through the fused cascade and
// checks it against the sequential float64 oracle within fold-average
// rounding, for arbitrary lengths and window/order combinations.
func FuzzFusedCascade(f *testing.F) {
	f.Add(int64(1), uint8(128), uint8(26), uint8(50))
	f.Add(int64(2), uint8(3), uint8(4), uint8(2))
	f.Add(int64(3), uint8(255), uint8(12), uint8(51))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, orderRaw, smoothRaw uint8) {
		n := int(nRaw)
		order := 2 * (1 + int(orderRaw)%15) // even, 2..30
		smooth := 1 + int(smoothRaw)%64
		if n == 0 {
			return
		}
		c, err := NewFusedCascade(order, 0.04, smooth)
		if err != nil {
			t.Fatal(err)
		}
		x := randSeries(seed, n)
		want := refCascade64(t, x, order, 0.04, smooth)
		got := make([]float64, n)
		if err := c.ApplyInto(got, x); err != nil {
			t.Fatal(err)
		}
		// The rounding budget is relative to the INPUT scale: the
		// smoother can cancel the output to far below max|x| (e.g.
		// n=27, order=26, smooth=60 — regression corpus
		// 722c17465a77c9b7), where an output-relative bound would
		// spuriously amplify a fixed absolute error.
		scale := math.Max(maxScale(want), maxScale(x))
		for i := range want {
			if rel := math.Abs(got[i]-want[i]) / scale; rel > 1e-12 {
				t.Fatalf("n=%d order=%d smooth=%d sample %d: fused %g vs oracle %g (rel %g)",
					n, order, smooth, i, got[i], want[i], rel)
			}
		}
	})
}
