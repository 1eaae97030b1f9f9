package iq

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// circlePoints samples an arc of the circle (center, radius) spanning
// [a0, a1] radians with n points and additive noise sigma.
func circlePoints(center complex128, radius, a0, a1 float64, n int, sigma float64, rng *rand.Rand) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		a := a0 + (a1-a0)*float64(i)/float64(n-1)
		p := center + cmplx.Rect(radius, a)
		if sigma > 0 {
			p += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
		}
		out[i] = p
	}
	return out
}

// fitters enumerates the algebraic fits under test.
var fitters = map[string]func([]complex128) (Circle, error){
	"pratt": FitCirclePratt,
}

func TestCircleFitsExactFullCircle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := circlePoints(3-2i, 1.7, 0, 2*math.Pi, 90, 0, rng)
	for name, fit := range fitters {
		t.Run(name, func(t *testing.T) {
			c, err := fit(pts)
			if err != nil {
				t.Fatal(err)
			}
			if cmplx.Abs(c.Center-(3-2i)) > 1e-9 {
				t.Fatalf("center %v, want 3-2i", c.Center)
			}
			if !approx(c.Radius, 1.7, 1e-9) {
				t.Fatalf("radius %g, want 1.7", c.Radius)
			}
			if c.RMSE > 1e-9 {
				t.Fatalf("RMSE %g on exact data", c.RMSE)
			}
		})
	}
}

func TestCircleFitsRandomCirclesProperty(t *testing.T) {
	// Pratt must recover randomly placed circles from clean half arcs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		center := complex(rng.NormFloat64()*5, rng.NormFloat64()*5)
		radius := 0.5 + rng.Float64()*4
		a0 := rng.Float64() * 2 * math.Pi
		pts := circlePoints(center, radius, a0, a0+math.Pi, 60, 0, rng)
		c, err := FitCirclePratt(pts)
		if err != nil {
			return false
		}
		return cmplx.Abs(c.Center-center) <= 1e-6*(1+cmplx.Abs(center)) &&
			approx(c.Radius, radius, 1e-6*(1+radius))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrattNoisyShortArc(t *testing.T) {
	// The regime the tracker lives in: a short arc with noise. Pratt
	// must land near the truth.
	rng := rand.New(rand.NewSource(7))
	center := complex(1, 2)
	const radius = 2.0
	pts := circlePoints(center, radius, 0.3, 1.5, 400, 0.01, rng)
	pratt, err := FitCirclePratt(pts)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(pratt.Center-center) > 0.1 {
		t.Fatalf("pratt center error %g", cmplx.Abs(pratt.Center-center))
	}
	if math.Abs(pratt.Radius-radius) > 0.1 {
		t.Fatalf("pratt radius %g, want %g", pratt.Radius, radius)
	}
	if pratt.RMSE > 0.05 {
		t.Fatalf("pratt RMSE %g too large", pratt.RMSE)
	}
}

func TestCircleFitDegenerate(t *testing.T) {
	cases := []struct {
		name string
		pts  []complex128
	}{
		{"too few", []complex128{1, 2}},
		{"coincident", []complex128{1 + 1i, 1 + 1i, 1 + 1i, 1 + 1i}},
		{"collinear", []complex128{0, 1 + 1i, 2 + 2i, 3 + 3i}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for name, fit := range fitters {
				if _, err := fit(tc.pts); err == nil {
					t.Errorf("%s accepted %s input", name, tc.name)
				}
			}
		})
	}
}

func TestCircleRMSEMeasuresNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const sigma = 0.05
	pts := circlePoints(0, 3, 0, 2*math.Pi, 720, sigma, rng)
	c, err := FitCirclePratt(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Radial residuals of isotropic noise have sigma ~= noise sigma.
	if c.RMSE < sigma*0.7 || c.RMSE > sigma*1.3 {
		t.Fatalf("RMSE %g, want ~%g", c.RMSE, sigma)
	}
}
