package iq

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randCloud(seed int64, n int) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(2+0.3*rng.NormFloat64(), -1+0.3*rng.NormFloat64())
	}
	return z
}

// planesOf splits a complex series into freshly allocated planes.
func planesOf(z []complex128) Planes32 {
	p := MakePlanes32(len(z))
	p.FromComplex(z)
	return p
}

func TestPlanes32RoundTrip(t *testing.T) {
	z := randCloud(1, 64)
	p := planesOf(z)
	if p.Len() != len(z) {
		t.Fatalf("len %d, want %d", p.Len(), len(z))
	}
	back := p.ToComplex(make([]complex128, len(z)))
	for i := range z {
		if cmplx.Abs(back[i]-z[i]) > 1e-6*cmplx.Abs(z[i]) {
			t.Fatalf("sample %d: %v -> %v", i, z[i], back[i])
		}
		if p.At(i) != back[i] {
			t.Fatalf("At(%d) disagrees with ToComplex", i)
		}
	}
	p.Set(3, 5+7i)
	if p.At(3) != 5+7i {
		t.Fatalf("Set/At: got %v", p.At(3))
	}
}

func TestMomentSums32MatchesComplexMoments(t *testing.T) {
	z := randCloud(2, 500)
	p := planesOf(z)
	sumI, sumQ, sumII, sumQQ, sumIQ := MomentSums32(p.I, p.Q)
	var wI, wQ, wII, wQQ, wIQ float64
	for i := range z {
		// Reference over the same float32-quantised samples: the kernel
		// under test is the accumulation, not the narrowing.
		x := float64(p.I[i])
		y := float64(p.Q[i])
		wI += x
		wQ += y
		wII += x * x
		wQQ += y * y
		wIQ += x * y
	}
	for _, d := range []struct{ got, want float64 }{
		{sumI, wI}, {sumQ, wQ}, {sumII, wII}, {sumQQ, wQQ}, {sumIQ, wIQ},
	} {
		if d.got != d.want {
			t.Fatalf("moment sum %g, want %g", d.got, d.want)
		}
	}
}

func TestVariance2DPlanesMatchesVariance2D(t *testing.T) {
	z := randCloud(3, 400)
	p := planesOf(z)
	want := Variance2D(z)
	got := Variance2DPlanes(p.I, p.Q)
	if math.Abs(got-want) > 1e-5*math.Abs(want) {
		t.Fatalf("variance %g, want %g", got, want)
	}
	if Variance2DPlanes(p.I[:1], p.Q[:1]) != 0 {
		t.Fatal("single sample must have zero variance")
	}
}

func TestFinitePlanes(t *testing.T) {
	p := planesOf(randCloud(4, 16))
	if !FinitePlanes(p.I, p.Q) {
		t.Fatal("finite planes reported non-finite")
	}
	p.I[7] = float32(math.NaN())
	if FinitePlanes(p.I, p.Q) {
		t.Fatal("NaN slipped through")
	}
	p.I[7] = 0
	p.Q[2] = float32(math.Inf(-1))
	if FinitePlanes(p.I, p.Q) {
		t.Fatal("-Inf slipped through")
	}
}
