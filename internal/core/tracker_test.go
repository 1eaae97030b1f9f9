package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// arcSample returns a point on the circle (center, radius) at angle a
// plus isotropic noise.
func arcSample(center complex128, radius, a, sigma float64, rng *rand.Rand) complex128 {
	p := center + cmplx.Rect(radius, a)
	if sigma > 0 {
		p += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	return p
}

func TestTrackerRecoversCircleCenter(t *testing.T) {
	tr, err := NewTracker(200, 10, 50, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	center := complex(2, -1)
	const radius = 1.5
	var lastDist float64
	var tracking bool
	for i := 0; i < 600; i++ {
		// Oscillating arc phase, like respiration-driven rotation.
		a := 0.5 * math.Sin(float64(i)*0.05)
		d, ok := tr.Push(arcSample(center, radius, a, 0.005, rng))
		if ok {
			tracking = true
			lastDist = d
		}
	}
	if !tracking {
		t.Fatal("tracker never produced distances")
	}
	c, ok := tr.center, tr.haveFit
	if !ok {
		t.Fatal("no centre after 600 samples")
	}
	if cmplx.Abs(c-center) > 0.15 {
		t.Fatalf("centre error %g", cmplx.Abs(c-center))
	}
	if math.Abs(tr.Radius()-radius) > 0.15 {
		t.Fatalf("radius %g, want %g", tr.Radius(), radius)
	}
	if math.Abs(lastDist-radius) > 0.15 {
		t.Fatalf("distance %g, want ~radius %g", lastDist, radius)
	}
	if !tr.Mature() {
		t.Fatal("tracker should be mature after filling its window")
	}
	if tr.fitCount == 0 {
		t.Fatal("no fits recorded")
	}
}

func TestTrackerNoOutputBeforeMinFit(t *testing.T) {
	tr, err := NewTracker(100, 10, 50, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 49; i++ {
		if _, ok := tr.Push(arcSample(1, 1, float64(i)*0.02, 0.01, rng)); ok {
			t.Fatalf("distance produced at sample %d, before minFit", i)
		}
	}
}

func TestTrackerSeedStartsImmediately(t *testing.T) {
	tr, err := NewTracker(100, 10, 50, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	history := make([]complex128, 80)
	for i := range history {
		history[i] = arcSample(0, 2, float64(i)*0.01, 0.005, rng)
	}
	tr.Seed(history)
	if !tr.haveFit {
		t.Fatal("seeded tracker should have a fit")
	}
	if _, ok := tr.Push(arcSample(0, 2, 0.5, 0.005, rng)); !ok {
		t.Fatal("seeded tracker should emit distances immediately")
	}
}

func TestTrackerReset(t *testing.T) {
	tr, _ := NewTracker(100, 10, 50, 0.25)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 120; i++ {
		tr.Push(arcSample(0, 1, float64(i)*0.01, 0.01, rng))
	}
	tr.Reset()
	if tr.haveFit {
		t.Fatal("reset tracker should have no fit")
	}
	if tr.Mature() {
		t.Fatal("reset tracker should not be mature")
	}
	if tr.Radius() != 0 {
		t.Fatal("reset tracker should have zero radius")
	}
}

func TestTrackerRejectsRadiusJumps(t *testing.T) {
	// Feed a clean arc, then inject a window of wildly different
	// geometry: the first few refits must hold the old estimate.
	tr, _ := NewTracker(100, 10, 30, 0.5)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		tr.Push(arcSample(0, 1, float64(i)*0.02, 0.002, rng))
	}
	r0 := tr.Radius()
	// A handful of far-out samples within one refit interval.
	for i := 0; i < 10; i++ {
		tr.Push(arcSample(50, 30, float64(i)*0.3, 0.002, rng))
	}
	if math.Abs(tr.Radius()-r0) > r0*0.9 {
		t.Fatalf("radius leapt from %g to %g despite the sanity gate", r0, tr.Radius())
	}
}

func TestTrackerConstructorErrors(t *testing.T) {
	if _, err := NewTracker(3, 10, 5, 0.2); err == nil {
		t.Fatal("tiny window must be rejected")
	}
	if _, err := NewTracker(100, 0, 5, 0.2); err == nil {
		t.Fatal("zero refit interval must be rejected")
	}
	if _, err := NewTracker(100, 10, 5, 0); err == nil {
		t.Fatal("zero blend must be rejected")
	}
	if _, err := NewTracker(100, 10, 5, 1.2); err == nil {
		t.Fatal("blend > 1 must be rejected")
	}
}

func TestTrackerBlinkVisibleInDistance(t *testing.T) {
	// The whole point: a radial excursion (amplitude change) shows in
	// the distance waveform while arc rotation does not.
	tr, _ := NewTracker(300, 10, 50, 0.25)
	rng := rand.New(rand.NewSource(6))
	center := complex(1, 1)
	var quiet []float64
	for i := 0; i < 500; i++ {
		a := 0.4 * math.Sin(float64(i)*0.04)
		if d, ok := tr.Push(arcSample(center, 2, a, 0.003, rng)); ok && i > 300 {
			quiet = append(quiet, d)
		}
	}
	// Radial excursion of 0.2 (10% of the radius).
	var bump float64
	for i := 0; i < 5; i++ {
		d, ok := tr.Push(center + cmplx.Rect(2.2, 0.1))
		if ok {
			bump = d
		}
	}
	var mean float64
	for _, v := range quiet {
		mean += v
	}
	mean /= float64(len(quiet))
	if bump-mean < 0.15 {
		t.Fatalf("blink excursion %g barely above quiet mean %g", bump, mean)
	}
}

// refPush is Push with the copy-based renormalization the ring-based one
// must reproduce: the window is copied oldest first, widened, into
// scratch and the moment sums are rebuilt from the copy. Like the
// tracker, it stores the sample at float32 precision and sums what it
// stores.
func refPush(t *Tracker, scratch []complex128, z complex128) (float64, bool) {
	if t.count == len(t.window) {
		t.mom.Evict(complex128(t.window[t.pos]))
	} else {
		t.count++
	}
	t.window[t.pos] = complex64(z)
	t.mom.Push(complex128(complex64(z)))
	t.pos++
	if t.pos == len(t.window) {
		t.pos = 0
	}
	if t.mom.NeedsRenorm() {
		out := scratch[:t.count]
		start := t.pos - t.count
		for i := range out {
			idx := start + i
			if idx < 0 {
				idx += len(t.window)
			}
			out[i] = complex128(t.window[idx%len(t.window)])
		}
		t.mom.Reset()
		t.mom.Accumulate(out)
	}
	t.sinceFit++
	if !t.haveFit {
		if t.count >= t.minFit {
			t.refit()
		}
	} else if t.sinceFit >= t.refitEach {
		t.refit()
	}
	if !t.haveFit {
		return 0, false
	}
	d := z - t.center
	return math.Sqrt(real(d)*real(d) + imag(d)*imag(d)), true
}

func TestTrackerRenormalizeInPlace(t *testing.T) {
	const window = 60
	got, _ := NewTracker(window, 7, 20, 0.25)
	ref, _ := NewTracker(window, 7, 20, 0.25)
	scratch := make([]complex128, window)
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5*window+17; i++ {
		z := arcSample(0.3-0.2i, 1.1, float64(i)*0.015, 0.01, rng)
		if i%23 == 0 {
			z *= 0.8 // a blink-like radial dip
		}
		dGot, okGot := got.Push(z)
		dRef, okRef := refPush(ref, scratch, z)
		if dGot != dRef || okGot != okRef {
			t.Fatalf("push %d: distance %v/%v, reference %v/%v", i, dGot, okGot, dRef, okRef)
		}
		cGot := got.center
		cRef := ref.center
		if cGot != cRef || got.Radius() != ref.Radius() {
			t.Fatalf("push %d: centre %v radius %v, reference %v %v", i, cGot, got.Radius(), cRef, ref.Radius())
		}
		if got.mom != ref.mom {
			t.Fatalf("push %d: moment sums %+v, reference %+v", i, got.mom, ref.mom)
		}
	}
	if got.fitCount == 0 {
		t.Fatal("tracker never fitted")
	}
}
