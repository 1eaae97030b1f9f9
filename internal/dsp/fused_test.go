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

// TestFusedCascade32ErrorBudget pins the float32 SoA path to the
// documented end-to-end budget: within 1e-5 of the float64 sequential
// reference, relative to the series' peak magnitude (DESIGN.md §13).
func TestFusedCascade32ErrorBudget(t *testing.T) {
	const order, cutoff, smooth = 26, 0.04, 50
	c, err := NewFusedCascade(order, cutoff, smooth)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		x := randSeries(seed, 2048)
		want := refCascade64(t, x, order, cutoff, smooth)
		x32 := make([]float32, len(x))
		for i, v := range x {
			x32[i] = float32(v)
		}
		got := make([]float32, len(x))
		if err := c.ApplyInto32(got, x32); err != nil {
			t.Fatal(err)
		}
		scale := maxScale(want)
		for i := range want {
			if rel := math.Abs(float64(got[i])-want[i]) / scale; rel > 1e-5 {
				t.Fatalf("seed=%d sample %d: float32 %g vs float64 %g (rel %g)",
					seed, i, got[i], want[i], rel)
			}
		}
	}
}

func TestFusedCascadeSubtraction(t *testing.T) {
	c, err := NewFusedCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	x := randSeries(3, 300)
	x32 := make([]float32, len(x))
	for i, v := range x {
		x32[i] = float32(v)
	}
	plain := make([]float32, len(x))
	shifted := make([]float32, len(x))
	const sub = float32(0.75)
	if err := c.ApplyInto32(plain, x32); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplySubInto32(shifted, x32, sub); err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if d := (plain[i] - sub) - shifted[i]; d != 0 {
			t.Fatalf("sample %d: subtraction not a pure shift (diff %g)", i, d)
		}
	}
}

func TestFusedCascadeAliasing(t *testing.T) {
	// The FIR stage writes dst while later outputs still read x, so the
	// fused cascade must reject aliasing on every path.
	c, err := NewFusedCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	buf := randSeries(9, 400)
	if err := c.ApplyInto(buf, buf); err == nil {
		t.Fatal("aliased ApplyInto must be rejected")
	}
	buf32 := make([]float32, 400)
	if err := c.ApplyInto32(buf32, buf32); err == nil {
		t.Fatal("aliased ApplyInto32 must be rejected")
	}
	if err := c.ApplySubInto32(buf32, buf32, 0.5); err == nil {
		t.Fatal("aliased ApplySubInto32 must be rejected")
	}
	// FoldedFIR alone rejects aliasing too, like FIRFilter.
	fir, err := FoldedLowPass(26, 0.04)
	if err != nil {
		t.Fatal(err)
	}
	if err := fir.ApplyInto(buf, buf); err == nil {
		t.Fatal("FoldedFIR.ApplyInto must reject aliasing")
	}
	if err := fir.ApplyInto32(buf32, buf32); err == nil {
		t.Fatal("FoldedFIR.ApplyInto32 must reject aliasing")
	}
}

func TestFusedCascadeAllocFree(t *testing.T) {
	c, err := NewFusedCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	x := randSeries(5, 2048)
	dst := make([]float64, len(x))
	x32 := make([]float32, len(x))
	dst32 := make([]float32, len(x))
	for i, v := range x {
		x32[i] = float32(v)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := c.ApplyInto(dst, x); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ApplyInto allocates %.1f objects/run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := c.ApplySubInto32(dst32, x32, 0.1); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ApplySubInto32 allocates %.1f objects/run, want 0", allocs)
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

// FuzzFusedCascade drives random series through the fused float32 path
// and checks it against the sequential float64 oracle within the
// documented error budget, for arbitrary lengths and window/order
// combinations.
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
		x32 := make([]float32, n)
		for i, v := range x {
			x32[i] = float32(v)
		}
		got := make([]float32, n)
		if err := c.ApplyInto32(got, x32); err != nil {
			t.Fatal(err)
		}
		// The float32 error budget is relative to the INPUT scale: the
		// dominant term is eps32·max|x| from narrowing the samples,
		// carried through a linear cascade with bounded per-stage gain.
		// Background subtraction can cancel the output to far below
		// max|x| (e.g. n=27, order=26, smooth=60 — regression corpus
		// 722c17465a77c9b7), where an output-relative bound would
		// spuriously amplify that fixed absolute error.
		scale := math.Max(maxScale(want), maxScale(x))
		for i := range want {
			if rel := math.Abs(float64(got[i])-want[i]) / scale; rel > 1e-5 {
				t.Fatalf("n=%d order=%d smooth=%d sample %d: float32 %g vs float64 %g (rel %g)",
					n, order, smooth, i, got[i], want[i], rel)
			}
		}
		// The float64 fused path sits within fold-average rounding of
		// the oracle.
		got64 := make([]float64, n)
		if err := c.ApplyInto(got64, x); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if rel := math.Abs(got64[i]-want[i]) / scale; rel > 1e-12 {
				t.Fatalf("n=%d order=%d smooth=%d sample %d: fused64 %g vs oracle %g (rel %g)",
					n, order, smooth, i, got64[i], want[i], rel)
			}
		}
	})
}
