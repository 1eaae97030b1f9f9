package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const floatTol = 1e-9

func approxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func complexApproxEqual(a, b complex128, tol float64) bool {
	return cmplx.Abs(a-b) <= tol
}

func TestFFTImpulse(t *testing.T) {
	// The transform of a unit impulse is flat ones.
	for _, n := range []int{1, 2, 8, 12, 100} {
		x := make([]complex128, n)
		x[0] = 1
		got := FFT(x)
		for i, v := range got {
			if !complexApproxEqual(v, 1, 1e-9) {
				t.Fatalf("n=%d bin %d = %v, want 1", n, i, v)
			}
		}
	}
}

func TestFFTSinusoidPeak(t *testing.T) {
	// A pure sinusoid concentrates its energy in the matching bin.
	const n = 256
	const k = 17
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(k) * float64(i) / n)
	}
	mag := MagnitudeSpectrum(x)
	best := ArgMax(mag[:n/2])
	if best != k {
		t.Fatalf("spectral peak at bin %d, want %d", best, k)
	}
	if mag[k] < float64(n)/2*0.99 {
		t.Fatalf("peak magnitude %g, want ~%g", mag[k], float64(n)/2)
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	// The inverse radix-2 kernel, unnormalised, is the last step of
	// every Bluestein transform: scaled by 1/n it must undo FFT.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := FFT(x)
		radix2(back, true)
		for i := range back {
			back[i] /= complex(float64(n), 0)
		}
		for i := range x {
			if !complexApproxEqual(back[i], x[i], 1e-8) {
				t.Fatalf("n=%d sample %d: got %v want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	// FFT(a*x + y) = a*FFT(x) + FFT(y), for random signals.
	f := func(seed int64, scaleRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		a := complex(float64(scaleRaw)/16, 0)
		x := make([]complex128, n)
		y := make([]complex128, n)
		mixed := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			y[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			mixed[i] = a*x[i] + y[i]
		}
		fm := FFT(mixed)
		fx := FFT(x)
		fy := FFT(y)
		for i := range fm {
			if !complexApproxEqual(fm[i], a*fx[i]+fy[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFFTParsevalProperty(t *testing.T) {
	// Sum |x|^2 == Sum |X|^2 / N.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 48 // exercises Bluestein
		x := make([]complex128, n)
		var timePower float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timePower += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		var freqPower float64
		for _, v := range FFT(x) {
			freqPower += real(v)*real(v) + imag(v)*imag(v)
		}
		return approxEqual(timePower, freqPower/float64(n), 1e-6*(1+timePower))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFFTFreq(t *testing.T) {
	f := FFTFreq(8, 80)
	want := []float64{0, 10, 20, 30, 40, -30, -20, -10}
	for i := range want {
		if !approxEqual(f[i], want[i], floatTol) {
			t.Fatalf("bin %d: got %g want %g", i, f[i], want[i])
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{-3: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTEmpty(t *testing.T) {
	if got := FFT(nil); len(got) != 0 {
		t.Errorf("FFT(nil) returned %d samples", len(got))
	}
	if got := FFT([]complex128{}); len(got) != 0 {
		t.Errorf("FFT(empty) returned %d samples", len(got))
	}
}

// refRadix2 is the radix-2 transform with its twiddles advanced inline
// by the w *= wStep recurrence, the reference the table-driven radix2
// must match bit for bit.
func refRadix2(x []complex128, inverse bool) {
	n := len(x)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// refBluestein is bluestein over refRadix2.
func refBluestein(x []complex128) {
	n := len(x)
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Exp(complex(0, -math.Pi*float64(kk)/float64(n)))
	}
	m := NextPow2(2*n - 1)
	a := make([]complex128, m)
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		a[k] = x[k] * chirp[k]
	}
	b[0] = cmplx.Conj(chirp[0])
	for k := 1; k < n; k++ {
		b[k] = cmplx.Conj(chirp[k])
		b[m-k] = b[k]
	}
	refRadix2(a, false)
	refRadix2(b, false)
	for i := range a {
		a[i] *= b[i]
	}
	refRadix2(a, true)
	invM := 1 / float64(m)
	for k := 0; k < n; k++ {
		x[k] = a[k] * complex(invM, 0) * chirp[k]
	}
}

// refTransform is fftInPlace over the reference kernels, returning a
// transformed copy.
func refTransform(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	if n := len(out); n&(n-1) == 0 {
		refRadix2(out, false)
	} else {
		refBluestein(out)
	}
	return out
}

func TestFFTTablesMatchRecurrence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sizes := []int{1000} // Bluestein, over a 2048-point radix-2
	for n := 2; n <= 8192; n <<= 1 {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		check := func(inverse bool, got, want []complex128) {
			t.Helper()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v bin %d: %v, recurrence gives %v", n, inverse, i, got[i], want[i])
				}
			}
		}
		check(false, FFT(x), refTransform(x))
		if n&(n-1) == 0 {
			// Bluestein's inverse convolution step.
			got := append([]complex128(nil), x...)
			want := append([]complex128(nil), x...)
			radix2(got, true)
			refRadix2(want, true)
			check(true, got, want)
		}
	}
	x := make([]complex128, 64)
	x[3] = 1
	in := append([]complex128(nil), x...)
	FFTInPlace(x)
	want := refTransform(in)
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("FFTInPlace bin %d: %v, want %v", i, x[i], want[i])
		}
	}
}
