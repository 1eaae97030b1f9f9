package iq

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// momentScales returns the tolerance scales for centred moments of
// order 2, 3 and 4, anchored on the raw mean-square magnitude of the
// window. Recovering centred moments from raw sums cancels digits
// proportional to these scales, so a fixed absolute tolerance would be
// meaningless across magnitudes; 1e-9 of the raw scale is ~1e7 times
// the worst rounding drift a renormalized accumulator can carry.
func momentScales(window []complex128) (s2, s3, s4 float64) {
	if len(window) == 0 {
		return 1, 1, 1
	}
	var acc float64
	for _, z := range window {
		acc += real(z)*real(z) + imag(z)*imag(z)
	}
	s2 = acc / float64(len(window))
	return s2, s2 * math.Sqrt(s2), s2 * s2
}

// requireMomentsMatch compares the accumulator's recovered centred
// moments against the two-pass batch reference over the same window,
// with tolerances anchored on the current window's own scales.
func requireMomentsMatch(t *testing.T, s *SlidingMoments, window []complex128) {
	t.Helper()
	requireMomentsMatchDrift(t, s, window, 0)
}

// requireMomentsMatchDrift is requireMomentsMatch for accumulators
// that have lived through evictions: residue2 is the peak per-sample
// squared magnitude pushed since the last exact recompute (0 if none).
// Push/evict residue scales with the raw-sum magnitude at the time of
// the operation — a huge sample that has since left the window leaves
// O(eps·peak^k) garbage in the order-k sums — so drift tolerances must
// reference the historical peak, not just whatever the window holds
// now.
func requireMomentsMatchDrift(t *testing.T, s *SlidingMoments, window []complex128, residue2 float64) {
	t.Helper()
	if s.Count() != len(window) {
		t.Fatalf("accumulator holds %d samples, window has %d", s.Count(), len(window))
	}
	if len(window) < 3 {
		return
	}
	want, err := computeMoments(window)
	if err != nil {
		t.Fatalf("batch moments: %v", err)
	}
	got := s.moments()
	s2, s3, s4 := momentScales(window)
	if residue2 > s2 {
		s2 = residue2
		s3 = residue2 * math.Sqrt(residue2)
		s4 = residue2 * residue2
	}
	const rel = 1e-9
	check := func(name string, g, w, scale float64) {
		t.Helper()
		if math.Abs(g-w) > rel*(1+scale) {
			t.Fatalf("%s = %g, batch reference %g (diff %g, tol %g, n=%d)",
				name, g, w, math.Abs(g-w), rel*(1+scale), len(window))
		}
	}
	check("meanI", got.meanI, want.meanI, math.Sqrt(s2))
	check("meanQ", got.meanQ, want.meanQ, math.Sqrt(s2))
	check("mxx", got.mxx, want.mxx, s2)
	check("myy", got.myy, want.myy, s2)
	check("mxy", got.mxy, want.mxy, s2)
	check("mxz", got.mxz, want.mxz, s3)
	check("myz", got.myz, want.myz, s3)
	check("mzz", got.mzz, want.mzz, s4)
	check("mz", got.mz, want.mz, s2)
	check("covXY", got.covXY, want.covXY, s2*s2)
	check("varZ", got.varZ, want.varZ, s4)
	// Variance2D must agree with the allocating batch helper too.
	if v, w := s.Variance2D(), Variance2D(window); math.Abs(v-w) > rel*(1+s2) {
		t.Fatalf("Variance2D = %g, batch %g", v, w)
	}
	// Eccentricity is a ratio of second moments, so its error is the
	// moment cancellation noise divided by the spread; only compare when
	// the spread is large enough relative to the raw scale for the ratio
	// to carry signal (fuzz inputs can put the whole cloud at 1e12 with
	// spread 1, where both values are rounding noise).
	if want.mz > 1e-4*(1+s2) {
		if e, w := s.Eccentricity(), Eccentricity(window); math.Abs(e-w) > 1e-6 {
			t.Fatalf("Eccentricity = %g, batch %g", e, w)
		}
	}
}

// slide pushes stream through a window of the given capacity, evicting
// oldest-first, checking the accumulator against the batch reference
// after every step and renormalizing whenever the accumulator asks.
func slide(t *testing.T, stream []complex128, capacity, renormEvery int) {
	t.Helper()
	s := NewSlidingMoments(renormEvery)
	window := make([]complex128, 0, capacity)
	renorms := 0
	for _, z := range stream {
		if len(window) == capacity {
			s.Evict(window[0])
			window = window[:copy(window, window[1:])]
		}
		s.Push(z)
		window = append(window, z)
		if s.NeedsRenorm() {
			s.Reset()
			s.Accumulate(window)
			renorms++
		}
		requireMomentsMatch(t, &s, window)
	}
	// capacity 1 evicts-to-empty every step, which resets exactly and
	// never accrues drift, so no renormalization is ever requested.
	if renormEvery > 0 && capacity > 1 && len(stream) > capacity+renormEvery && renorms == 0 {
		t.Fatalf("no renormalization over %d evictions (interval %d)", len(stream)-capacity, renormEvery)
	}
}

func TestSlidingMomentsMatchesBatchOnArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := make([]complex128, 600)
	center := complex(1.2, -0.7)
	for i := range stream {
		a := 0.6 * math.Sin(float64(i)*0.05)
		stream[i] = center + cmplx.Rect(1.5, a) +
			complex(rng.NormFloat64()*0.01, rng.NormFloat64()*0.01)
	}
	slide(t, stream, 120, 60)
}

func TestSlidingMomentsMatchesBatchOnNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	stream := make([]complex128, 400)
	for i := range stream {
		stream[i] = complex(rng.NormFloat64()*3, rng.NormFloat64()*3)
	}
	slide(t, stream, 50, 25)
}

func TestSlidingMomentsTinyWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	stream := make([]complex128, 60)
	for i := range stream {
		stream[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	for _, capacity := range []int{1, 2, 3, 5} {
		slide(t, stream, capacity, 4)
	}
}

func TestSlidingMomentsFitMatchesBatchFit(t *testing.T) {
	// On well-conditioned arcs the moment-based Pratt fit must
	// reproduce the sample-based fits' centre and radius; only RMSE is
	// allowed to differ (algebraic estimate vs exact), and on clean
	// arcs even that must agree closely.
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		center := complex(rng.NormFloat64()*2, rng.NormFloat64()*2)
		radius := 0.5 + rng.Float64()*2
		span := 0.5 + rng.Float64()*2
		n := 30 + rng.Intn(200)
		window := make([]complex128, n)
		for i := range window {
			a := span * math.Sin(float64(i)*0.07)
			window[i] = center + cmplx.Rect(radius, a) +
				complex(rng.NormFloat64()*0.01, rng.NormFloat64()*0.01)
		}
		var s SlidingMoments
		s.Accumulate(window)

		inc, errInc := s.FitPratt()
		batch, errBatch := FitCirclePratt(window)
		if errInc != nil || errBatch != nil {
			t.Fatalf("trial %d: fit errors inc=%v batch=%v", trial, errInc, errBatch)
		}
		tol := 1e-9 * (1 + cmplx.Abs(batch.Center) + batch.Radius)
		if cmplx.Abs(inc.Center-batch.Center) > tol {
			t.Fatalf("trial %d: centre %v, batch %v (diff %g)",
				trial, inc.Center, batch.Center, cmplx.Abs(inc.Center-batch.Center))
		}
		if math.Abs(inc.Radius-batch.Radius) > tol {
			t.Fatalf("trial %d: radius %g, batch %g", trial, inc.Radius, batch.Radius)
		}
		// Clean arc: residuals ~1% of radius, where the algebraic RMSE
		// estimate is accurate to first order.
		if batch.RMSE > 0 && math.Abs(inc.RMSE-batch.RMSE) > 0.2*batch.RMSE+1e-12 {
			t.Fatalf("trial %d: RMSE estimate %g far from exact %g", trial, inc.RMSE, batch.RMSE)
		}
	}
}

func TestSlidingMomentsEvictToEmpty(t *testing.T) {
	s := NewSlidingMoments(8)
	vals := []complex128{1 + 2i, -3 + 0.5i, 0.25 - 4i}
	for _, v := range vals {
		s.Push(v)
	}
	for _, v := range vals {
		s.Evict(v)
	}
	if s.Count() != 0 {
		t.Fatalf("count %d after evicting everything", s.Count())
	}
	// Emptying must clear rounding residue exactly: refilling with one
	// sample then reading the mean must be exact.
	s.Push(2 - 1i)
	m := s.moments()
	if m.meanI != 2 || m.meanQ != -1 {
		t.Fatalf("residue after evict-to-empty: mean (%g, %g)", m.meanI, m.meanQ)
	}
}

func TestSlidingMomentsDegenerate(t *testing.T) {
	var s SlidingMoments
	if _, err := s.FitPratt(); err == nil {
		t.Fatal("empty accumulator must not fit")
	}
	s.Push(1)
	s.Push(1)
	if _, err := s.FitPratt(); err == nil {
		t.Fatal("two samples must not fit")
	}
	s.Push(1)
	if _, err := s.FitPratt(); err == nil {
		t.Fatal("coincident samples must be a degenerate fit")
	}
	if s.Variance2D() != 0 {
		t.Fatalf("coincident cloud variance %g", s.Variance2D())
	}
}

func TestSlidingMomentsResetKeepsInterval(t *testing.T) {
	s := NewSlidingMoments(2)
	for i := 0; i < 8; i++ {
		s.Push(complex(float64(i), 1))
		if i >= 3 {
			s.Evict(complex(float64(i-3), 1))
		}
	}
	if !s.NeedsRenorm() {
		t.Fatal("renorm not requested after enough evictions")
	}
	s.Reset()
	if s.Count() != 0 || s.NeedsRenorm() {
		t.Fatal("reset must empty the accumulator and clear the request")
	}
	// The interval survives: evictions accumulate toward it again.
	for i := 0; i < 6; i++ {
		s.Push(complex(0.5*float64(i), -1))
		if i >= 2 {
			s.Evict(complex(0.5*float64(i-2), -1))
		}
	}
	if !s.NeedsRenorm() {
		t.Fatal("renorm interval lost across Reset")
	}
}
