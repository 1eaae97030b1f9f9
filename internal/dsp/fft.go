// Package dsp provides the digital-signal-processing substrate used by
// BlinkRadar: FFTs, FIR filter design, window functions, smoothing, a
// streaming median, descriptive statistics and peak finding. Everything
// is implemented from scratch on top of the standard library so the
// module has no external dependencies.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync/atomic"
)

// FFT computes the discrete Fourier transform of x and returns a newly
// allocated slice. Power-of-two lengths use an iterative radix-2
// Cooley-Tukey transform; all other lengths fall back to Bluestein's
// algorithm, so any length is accepted. An empty input yields an empty
// output.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	copy(out, x)
	fftInPlace(out)
	return out
}

// FFTInPlace overwrites x with its discrete Fourier transform: FFT
// without the copy, for callers that own a reusable buffer.
func FFTInPlace(x []complex128) { fftInPlace(x) }

// FFTReal transforms a real-valued signal. It is a convenience wrapper
// that widens the input to complex and calls FFT.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	fftInPlace(c)
	return c
}

// fftInPlace dispatches on the length of x.
func fftInPlace(x []complex128) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		radix2(x, false)
	} else {
		bluestein(x)
	}
}

// radix2 runs an iterative in-place radix-2 Cooley-Tukey FFT, or its
// unnormalised inverse (Bluestein's convolution step).
// len(x) must be a power of two. The bit-reversal swaps and per-stage
// twiddles come from a table cached per size and direction, so each
// butterfly costs one complex multiply.
func radix2(x []complex128, inverse bool) {
	t := radix2Table(len(x), inverse)
	for _, p := range t.swaps {
		x[p[0]], x[p[1]] = x[p[1]], x[p[0]]
	}
	n := len(x)
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		w := t.twiddles[half-1 : size-1]
		for start := 0; start < n; start += size {
			for k, wk := range w {
				a := x[start+k]
				b := x[start+k+half] * wk
				x[start+k] = a + b
				x[start+k+half] = a - b
			}
		}
	}
}

// fftTable holds one power-of-two size's bit-reversal swaps and, for
// the stage of half-width h, its h twiddles at twiddles[h-1 : 2h-1].
type fftTable struct {
	swaps    [][2]int32
	twiddles []complex128
}

// fftTables caches one table per log2 size and direction.
var fftTables [2][64]atomic.Pointer[fftTable]

// radix2Table returns the cached table for size n, building it on first
// use. Each stage's twiddles come from the w *= wStep recurrence, not
// from cmplx.Exp per index, so the transform is bit-identical to the
// recurrence form the tests keep as its reference. Racing builders
// produce identical tables; either may win.
func radix2Table(n int, inverse bool) *fftTable {
	dir := 0
	sign := -1.0
	if inverse {
		dir, sign = 1, 1.0
	}
	lg := bits.TrailingZeros(uint(n))
	if t := fftTables[dir][lg].Load(); t != nil {
		return t
	}
	t := &fftTable{twiddles: make([]complex128, 0, n-1)}
	shift := 64 - uint(lg)
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			t.swaps = append(t.swaps, [2]int32{int32(i), int32(j)})
		}
	}
	for size := 2; size <= n; size <<= 1 {
		wStep := cmplx.Exp(complex(0, sign*2*math.Pi/float64(size)))
		w := complex(1, 0)
		for k := 0; k < size>>1; k++ {
			t.twiddles = append(t.twiddles, w)
			w *= wStep
		}
	}
	fftTables[dir][lg].Store(t)
	return t
}

// bluestein implements the chirp-z transform reduction of an arbitrary
// length DFT to a power-of-two circular convolution.
func bluestein(x []complex128) {
	n := len(x)
	// Chirp factors: w[k] = exp(-i*pi*k^2/n).
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		// k*k may overflow for huge n; use modular arithmetic on 2n.
		kk := (int64(k) * int64(k)) % int64(2*n)
		angle := -math.Pi * float64(kk) / float64(n)
		chirp[k] = cmplx.Exp(complex(0, angle))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		c := cmplx.Conj(chirp[k])
		b[k] = c
		b[m-k] = c
	}
	radix2(a, false)
	radix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	radix2(a, true)
	invM := 1 / float64(m)
	for k := 0; k < n; k++ {
		x[k] = a[k] * complex(invM, 0) * chirp[k]
	}
}

// FFTFreq returns the frequency in hertz associated with each FFT bin for
// a transform of length n over samples taken at sampleRate. Bins in the
// upper half are reported as negative frequencies, matching the layout of
// the FFT output.
func FFTFreq(n int, sampleRate float64) []float64 {
	f := make([]float64, n)
	for i := 0; i < n; i++ {
		k := i
		if i > n/2 {
			k = i - n
		}
		f[i] = float64(k) * sampleRate / float64(n)
	}
	return f
}

// MagnitudeSpectrum returns |X[k]| for each bin of the FFT of x.
func MagnitudeSpectrum(x []float64) []float64 {
	spec := FFTReal(x)
	m := make([]float64, len(spec))
	for i, c := range spec {
		m[i] = cmplx.Abs(c)
	}
	return m
}

// NextPow2 returns the smallest power of two >= n. It returns 1 for
// n <= 1.
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << uint(bits.Len(uint(n-1)))
}

// validateLength returns an error for non-positive lengths; shared by the
// design helpers in this package.
//
//blinkradar:coldpath
func validateLength(name string, n int) error {
	if n <= 0 {
		return fmt.Errorf("dsp: %s must be positive, got %d", name, n)
	}
	return nil
}
