package iq

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeSamples interprets the fuzz payload as a stream of float64
// pairs (I, Q), discarding non-finite or absurdly large values that no
// radar front end can produce.
func decodeSamples(data []byte) []complex128 {
	const sampleBytes = 16
	n := len(data) / sampleBytes
	if n > 4096 {
		n = 4096
	}
	z := make([]complex128, 0, n)
	for i := 0; i < n; i++ {
		re := math.Float64frombits(binary.LittleEndian.Uint64(data[i*sampleBytes:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(data[i*sampleBytes+8:]))
		if !finite(re) || !finite(im) {
			continue
		}
		z = append(z, complex(re, im))
	}
	return z
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12
}

// offlineExtent is the reference implementation of AngularExtent: take
// every sample's phase around center, unwrap the whole sequence with
// the allocating Unwrap, and measure the spread. The streaming version
// must agree because it performs the same arithmetic in one pass.
func offlineExtent(z []complex128, center complex128) float64 {
	if len(z) < 2 {
		return 0
	}
	phases := make([]float64, len(z))
	for i, c := range z {
		phases[i] = math.Atan2(imag(c-center), real(c-center))
	}
	u := Unwrap(phases)
	lo, hi := u[0], u[0]
	for _, p := range u[1:] {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	ext := hi - lo
	if ext > 2*math.Pi {
		ext = 2 * math.Pi
	}
	return ext
}

// FuzzAngularExtent cross-checks the streaming single-pass extent
// against the offline unwrap-then-scan reference on arbitrary I/Q
// clouds and centres.
func FuzzAngularExtent(f *testing.F) {
	seed := make([]byte, 0, 8*16)
	for _, v := range []float64{1, 0, 0, 1, -1, 0.5, 0.25, -1, 1, 1, -0.5, -0.5, 0.1, 0.9, 2, -2} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, 0.0, 0.0)
	f.Add(seed, 0.25, -0.75)
	f.Add([]byte{}, 1.0, 1.0)
	f.Fuzz(func(t *testing.T, data []byte, cre, cim float64) {
		if !finite(cre) || !finite(cim) {
			t.Skip("non-finite centre")
		}
		z := decodeSamples(data)
		center := complex(cre, cim)
		got := AngularExtent(z, center)
		want := offlineExtent(z, center)
		if got < 0 || got > 2*math.Pi+1e-9 {
			t.Fatalf("extent %g outside [0, 2pi]", got)
		}
		// Identical arithmetic, so only representation-level noise is
		// tolerated.
		tol := 1e-9 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("streaming extent %g, offline reference %g (diff %g) on %d samples",
				got, want, math.Abs(got-want), len(z))
		}
	})
}

// FuzzSlidingMoments drives a SlidingMoments accumulator through a
// fuzz-chosen push/evict/renormalize schedule and cross-checks the
// recovered centred moments against the two-pass batch reference after
// every step. Non-finite and absurdly large payload values are dropped
// by decodeSamples, mirroring the upstream frame sanitizer.
func FuzzSlidingMoments(f *testing.F) {
	seed := make([]byte, 0, 16*16)
	for i := 0; i < 16; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(math.Cos(float64(i))))
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(math.Sin(float64(i))))
	}
	f.Add(seed, uint8(4), uint8(8))
	f.Add(seed, uint8(1), uint8(0))
	f.Add(seed, uint8(200), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, capSeed, renormSeed uint8) {
		stream := decodeSamples(data)
		capacity := 1 + int(capSeed)%64
		renormEvery := int(renormSeed) % 64 // 0 disables renormalization
		s := NewSlidingMoments(renormEvery)
		window := make([]complex128, 0, capacity)
		// peak2 tracks the largest per-sample squared magnitude the sums
		// have absorbed since their last exact recompute; eviction residue
		// scales with it, so the drift tolerances must too.
		peak2 := 0.0
		for _, z := range stream {
			if len(window) == capacity {
				s.Evict(window[0])
				window = window[:copy(window, window[1:])]
			}
			s.Push(z)
			window = append(window, z)
			if zz := real(z)*real(z) + imag(z)*imag(z); zz > peak2 {
				peak2 = zz
			}
			if s.NeedsRenorm() {
				s.Reset()
				s.Accumulate(window)
				// The sums are exact again; only the current window's
				// contents can seed future residue.
				peak2 = 0
				for _, w := range window {
					if zz := real(w)*real(w) + imag(w)*imag(w); zz > peak2 {
						peak2 = zz
					}
				}
			}
			requireMomentsMatchDrift(t, &s, window, peak2)
			checkExclusion(t, &s, window, peak2)
		}
	})
}

// checkExclusion is FuzzSlidingMoments's exclusion case: subtract a
// minority subset's sums from the accumulator the way
// FitPrattExcluding does (every 4th sample, mirroring the ~15-25%
// trim fraction of a tracker refit) and demand the difference
// accumulator's recovered moments match the two-pass batch reference
// over the kept samples. Tolerances are referenced to the FULL
// window's moment scales, not the kept subset's: the difference of
// raw sums carries cancellation residue proportional to the full
// window's magnitude, which is exactly the guarantee FitPrattExcluding
// documents.
func checkExclusion(t *testing.T, s *SlidingMoments, window []complex128, residue2 float64) {
	t.Helper()
	if len(window) < 8 {
		return
	}
	var sub SlidingMoments
	kept := make([]complex128, 0, len(window))
	for i, z := range window {
		if i%4 == 0 {
			sub.Push(z)
		} else {
			kept = append(kept, z)
		}
	}
	d := SlidingMoments{
		n:   s.n - sub.n,
		sx:  s.sx - sub.sx,
		sy:  s.sy - sub.sy,
		sxx: s.sxx - sub.sxx,
		sxy: s.sxy - sub.sxy,
		syy: s.syy - sub.syy,
		sxz: s.sxz - sub.sxz,
		syz: s.syz - sub.syz,
		szz: s.szz - sub.szz,
	}
	want, err := computeMoments(kept)
	if err != nil {
		t.Fatalf("batch moments over kept: %v", err)
	}
	got := d.moments()
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
			t.Fatalf("exclusion %s = %g, batch reference %g (diff %g, tol %g, kept=%d of %d)",
				name, g, w, math.Abs(g-w), rel*(1+scale), len(kept), len(window))
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
}
