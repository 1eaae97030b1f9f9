package iq

import (
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
}
