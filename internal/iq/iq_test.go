package iq

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestAmplitudesPhases(t *testing.T) {
	z := []complex128{3 + 4i, 0 - 2i}
	amp := Amplitudes(z)
	if !approx(amp[0], 5, 1e-12) || !approx(amp[1], 2, 1e-12) {
		t.Fatalf("amplitudes %v", amp)
	}
	ph := Phases(z)
	if !approx(ph[1], -math.Pi/2, 1e-12) {
		t.Fatalf("phase %g, want -pi/2", ph[1])
	}
}

// unwrapRecoversTruth is the unwrap round-trip property: unwrapping the
// wrapped version of any slowly-varying phase track recovers it up to a
// constant 2*pi multiple. The truth walk draws Gaussian steps and
// clamps them to ±3.0: unwrapping is only well-defined for step
// magnitudes below pi, and an unclamped sigma=0.8 walk exceeds pi on
// rare tails (seed -4341268289692037633 used to flake this test).
func unwrapRecoversTruth(seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	n := 10 + rng.Intn(200)
	truth := make([]float64, n)
	truth[0] = rng.Float64() * 2 * math.Pi
	for i := 1; i < n; i++ {
		step := rng.NormFloat64() * 0.8
		if step > 3.0 {
			step = 3.0
		} else if step < -3.0 {
			step = -3.0
		}
		truth[i] = truth[i-1] + step
	}
	wrapped := make([]float64, n)
	for i, v := range truth {
		wrapped[i] = math.Atan2(math.Sin(v), math.Cos(v))
	}
	un := Unwrap(wrapped)
	offset := truth[0] - un[0]
	if r := math.Mod(offset, 2*math.Pi); math.Abs(r) > 1e-9 && math.Abs(math.Abs(r)-2*math.Pi) > 1e-9 {
		return false
	}
	for i := range un {
		if !approx(un[i]+offset, truth[i], 1e-9) {
			return false
		}
	}
	return true
}

func TestUnwrapContinuousProperty(t *testing.T) {
	if err := quick.Check(unwrapRecoversTruth, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnwrapContinuousRegressionSeed(t *testing.T) {
	// This seed draws a Gaussian step past pi early in the walk and
	// failed the property before the clamp was added.
	if !unwrapRecoversTruth(-4341268289692037633) {
		t.Fatal("unwrap property failed for the regression seed")
	}
}

func TestUnwrapPhasesJump(t *testing.T) {
	// Crossing the -pi/pi boundary must not produce a 2*pi hop.
	z := []complex128{
		cmplx.Rect(1, math.Pi-0.1),
		cmplx.Rect(1, math.Pi+0.1), // wraps to -pi+0.1
	}
	u := UnwrapPhases(z)
	if got := u[1] - u[0]; !approx(got, 0.2, 1e-9) {
		t.Fatalf("unwrapped step %g, want 0.2", got)
	}
}

func TestMeanVariance2D(t *testing.T) {
	z := []complex128{1 + 1i, 3 + 1i, 1 + 3i, 3 + 3i}
	if m := Mean(z); !approx(real(m), 2, 1e-12) || !approx(imag(m), 2, 1e-12) {
		t.Fatalf("mean %v, want 2+2i", m)
	}
	// Each point is at squared distance 2 from the centroid.
	if v := Variance2D(z); !approx(v, 2, 1e-12) {
		t.Fatalf("variance %g, want 2", v)
	}
	if Variance2D(z[:1]) != 0 {
		t.Fatal("variance of one sample should be 0")
	}
}

func TestVariance2DInvarianceProperty(t *testing.T) {
	// 2-D variance is invariant to rotation and translation.
	f := func(seed int64, angleRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		z := make([]complex128, n)
		for i := range z {
			z[i] = complex(rng.NormFloat64()*3, rng.NormFloat64())
		}
		base := Variance2D(z)
		angle := float64(angleRaw) / 65535 * 2 * math.Pi
		rot := cmplx.Rect(1, angle)
		shift := complex(rng.NormFloat64()*10, rng.NormFloat64()*10)
		moved := make([]complex128, n)
		for i := range z {
			moved[i] = z[i]*rot + shift
		}
		return approx(Variance2D(moved), base, 1e-7*(1+base))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEccentricity(t *testing.T) {
	// A straight-line cloud is maximally eccentric.
	var line []complex128
	for i := 0; i < 40; i++ {
		line = append(line, complex(float64(i), 2*float64(i)))
	}
	if e := Eccentricity(line); e < 0.999 {
		t.Fatalf("line eccentricity %g, want ~1", e)
	}
	// A symmetric circular cloud is nearly isotropic.
	var ring []complex128
	for i := 0; i < 360; i++ {
		a := float64(i) * math.Pi / 180
		ring = append(ring, cmplx.Rect(1, a))
	}
	if e := Eccentricity(ring); e > 0.05 {
		t.Fatalf("ring eccentricity %g, want ~0", e)
	}
	if Eccentricity(nil) != 0 {
		t.Fatal("empty eccentricity should be 0")
	}
}

func TestAngularExtent(t *testing.T) {
	// A 90-degree arc subtends pi/2 at its centre.
	var arc []complex128
	for i := 0; i <= 90; i++ {
		a := float64(i) * math.Pi / 180
		arc = append(arc, cmplx.Rect(2, a))
	}
	if got := AngularExtent(arc, 0); !approx(got, math.Pi/2, 1e-9) {
		t.Fatalf("arc extent %g, want %g", got, math.Pi/2)
	}
	// Multiple full turns are reported capped at 2*pi.
	var spins []complex128
	for i := 0; i < 1000; i++ {
		a := float64(i) * 0.05
		spins = append(spins, cmplx.Rect(1, a))
	}
	if got := AngularExtent(spins, 0); !approx(got, 2*math.Pi, 1e-9) {
		t.Fatalf("multi-turn extent %g, want capped 2*pi", got)
	}
	if AngularExtent(arc[:1], 0) != 0 {
		t.Fatal("single-sample extent should be 0")
	}
}
