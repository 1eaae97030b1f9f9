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
	// Round trip for power-of-two (radix-2) and arbitrary (Bluestein)
	// lengths.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 16, 64, 3, 7, 12, 100, 129} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		back := IFFT(FFT(x))
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

func TestConvolveMatchesFFTConvolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := make([]float64, 1+rng.Intn(40))
		b := make([]float64, 1+rng.Intn(40))
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		direct := Convolve(a, b)
		fast := FFTConvolve(a, b)
		if len(direct) != len(fast) {
			return false
		}
		for i := range direct {
			if !approxEqual(direct[i], fast[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConvolveKnown(t *testing.T) {
	got := Convolve([]float64{1, 2}, []float64{3, 4, 5})
	want := []float64{3, 10, 13, 10}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !approxEqual(got[i], want[i], floatTol) {
			t.Fatalf("index %d: got %g want %g", i, got[i], want[i])
		}
	}
}

func TestConvolveEmpty(t *testing.T) {
	if Convolve(nil, []float64{1}) != nil {
		t.Error("Convolve(nil, x) should be nil")
	}
	if FFTConvolve([]float64{1}, nil) != nil {
		t.Error("FFTConvolve(x, nil) should be nil")
	}
}

func TestGoertzelMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 64
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	spec := FFTReal(x)
	for _, k := range []int{0, 1, 5, 31} {
		g := Goertzel(x, float64(k))
		if !complexApproxEqual(g, spec[k], 1e-8) {
			t.Fatalf("bin %d: Goertzel %v, FFT %v", k, g, spec[k])
		}
	}
}

func TestGoertzelEmpty(t *testing.T) {
	if Goertzel(nil, 1) != 0 {
		t.Error("Goertzel of empty input should be 0")
	}
}

func TestFFTEmpty(t *testing.T) {
	if got := FFT(nil); len(got) != 0 {
		t.Errorf("FFT(nil) returned %d samples", len(got))
	}
	if got := IFFT([]complex128{}); len(got) != 0 {
		t.Errorf("IFFT(empty) returned %d samples", len(got))
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
func refBluestein(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	chirp := make([]complex128, n)
	for k := 0; k < n; k++ {
		kk := (int64(k) * int64(k)) % int64(2*n)
		chirp[k] = cmplx.Exp(complex(0, sign*math.Pi*float64(kk)/float64(n)))
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
func refTransform(x []complex128, inverse bool) []complex128 {
	out := append([]complex128(nil), x...)
	n := len(out)
	if n&(n-1) == 0 {
		refRadix2(out, inverse)
	} else {
		refBluestein(out, inverse)
	}
	if inverse {
		scale := 1 / float64(n)
		for i := range out {
			out[i] *= complex(scale, 0)
		}
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
		for _, inverse := range []bool{false, true} {
			got := FFT(x)
			if inverse {
				got = IFFT(x)
			}
			want := refTransform(x, inverse)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d inverse=%v bin %d: %v, recurrence gives %v", n, inverse, i, got[i], want[i])
				}
			}
		}
	}
	x := make([]complex128, 64)
	x[3] = 1
	in := append([]complex128(nil), x...)
	FFTInPlace(x)
	want := refTransform(in, false)
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("FFTInPlace bin %d: %v, want %v", i, x[i], want[i])
		}
	}
}
