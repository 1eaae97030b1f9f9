package dsp

import (
	"fmt"
	"math"
)

// FIRFilter is a finite-impulse-response filter described by its tap
// coefficients. The zero value is unusable; construct one with a design
// function such as LowPassFIR. The pipeline filters with the folded
// form (FoldedFIR, FusedCascade); the real-valued direct form
// (Apply, ApplyInto) lives in this package's tests as the float64
// oracle the folded kernels are checked against.
type FIRFilter struct {
	taps []float64
}

// LowPassFIR designs a Hamming-window windowed-sinc low-pass FIR filter
// of the given order (number of taps = order+1) with normalised cutoff
// frequency cutoff in (0, 0.5], where 0.5 corresponds to the Nyquist
// frequency — the order-26 Hamming-window filter of the paper's
// preprocessing cascade.
func LowPassFIR(order int, cutoff float64) (*FIRFilter, error) {
	if err := validateLength("FIR order", order); err != nil {
		return nil, err
	}
	if cutoff <= 0 || cutoff > 0.5 {
		return nil, fmt.Errorf("dsp: cutoff must be in (0, 0.5], got %g", cutoff)
	}
	n := order + 1
	taps := make([]float64, n)
	w := Hamming(n)
	mid := float64(order) / 2
	for i := 0; i < n; i++ {
		x := float64(i) - mid
		taps[i] = sinc(2*cutoff*x) * 2 * cutoff * w[i]
	}
	// Normalise to unity DC gain so the passband is not attenuated.
	var sum float64
	for _, t := range taps {
		sum += t
	}
	if sum != 0 {
		for i := range taps {
			taps[i] /= sum
		}
	}
	return &FIRFilter{taps: taps}, nil
}

// HighPassFIR designs a Hamming-window windowed-sinc high-pass filter
// by spectral inversion of the corresponding low-pass design. The order
// must be even so the filter has a well-defined centre tap.
func HighPassFIR(order int, cutoff float64) (*FIRFilter, error) {
	if order%2 != 0 {
		return nil, fmt.Errorf("dsp: high-pass FIR order must be even, got %d", order)
	}
	lp, err := LowPassFIR(order, cutoff)
	if err != nil {
		return nil, err
	}
	taps := lp.taps
	for i := range taps {
		taps[i] = -taps[i]
	}
	taps[order/2] += 1
	return &FIRFilter{taps: taps}, nil
}

// BandPassFIR designs a windowed-sinc band-pass filter passing normalised
// frequencies in [low, high], 0 < low < high <= 0.5.
func BandPassFIR(order int, low, high float64, window WindowFunc) (*FIRFilter, error) {
	if order%2 != 0 {
		return nil, fmt.Errorf("dsp: band-pass FIR order must be even, got %d", order)
	}
	if !(0 < low && low < high && high <= 0.5) {
		return nil, fmt.Errorf("dsp: need 0 < low < high <= 0.5, got low=%g high=%g", low, high)
	}
	if window == nil {
		window = Hamming
	}
	n := order + 1
	taps := make([]float64, n)
	w := window(n)
	mid := float64(order) / 2
	for i := 0; i < n; i++ {
		x := float64(i) - mid
		hp := sinc(2*high*x) * 2 * high
		lp := sinc(2*low*x) * 2 * low
		taps[i] = (hp - lp) * w[i]
	}
	// Normalise gain at the passband centre frequency.
	fc := (low + high) / 2
	var re, im float64
	for i, t := range taps {
		ang := 2 * math.Pi * fc * float64(i)
		re += t * math.Cos(ang)
		im -= t * math.Sin(ang)
	}
	gain := math.Hypot(re, im)
	if gain > 0 {
		for i := range taps {
			taps[i] /= gain
		}
	}
	return &FIRFilter{taps: taps}, nil
}

// sinc is the normalised sinc function sin(pi x)/(pi x).
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}

// Order returns the filter order (number of taps minus one).
func (f *FIRFilter) Order() int { return len(f.taps) - 1 }

// ApplyComplex filters a complex series by filtering the real and
// imaginary components independently, preserving I/Q structure.
func (f *FIRFilter) ApplyComplex(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	f.ApplyComplexInto(out, x) // lengths match by construction
	return out
}

// ApplyComplexInto filters a complex series into dst without allocating:
// the real and imaginary components are accumulated independently in a
// single pass, which is arithmetically identical to splitting the series
// and running the direct-form real filter on each part. dst must have
// the same length as x and must not alias it.
//
//blinkradar:hotpath
func (f *FIRFilter) ApplyComplexInto(dst, x []complex128) error {
	n := len(x)
	if len(dst) != n {
		return errSampleCount(len(dst), n)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] == &x[0] {
		return errAliased("ApplyComplexInto")
	}
	delay := f.Order() / 2
	for i := 0; i < n; i++ {
		var accRe, accIm float64
		for j, t := range f.taps {
			k := i + delay - j
			switch {
			case k < 0:
				k = 0
			case k >= n:
				k = n - 1
			}
			accRe += t * real(x[k])
			accIm += t * imag(x[k])
		}
		dst[i] = complex(accRe, accIm)
	}
	return nil
}

// Stream returns a streaming instance of the filter with its own delay
// line, suitable for sample-at-a-time real-time use.
func (f *FIRFilter) Stream() *FIRStream {
	return &FIRStream{taps: f.taps, delay: make([]float64, len(f.taps))}
}

// FIRStream is a stateful, sample-at-a-time FIR filter. It is not safe
// for concurrent use.
//
// Unlike FoldedFIR.ApplyInto, which shifts its output to compensate the
// filter group delay, a causal streaming filter cannot look ahead:
// every output sample lags the corresponding input feature by Delay()
// samples. Consumers that timestamp features found in the output (e.g.
// blink extrema) must subtract that lag to stay aligned with the
// offline path.
type FIRStream struct {
	taps  []float64
	delay []float64
	pos   int
	seen  int
}

// Delay returns the filter group delay in samples (order/2): how far
// output features trail the input in a causal streaming run.
func (s *FIRStream) Delay() int { return (len(s.taps) - 1) / 2 }

// Push feeds one input sample and returns one output sample. Output lags
// the input by Delay() samples (the filter group delay).
//
//blinkradar:hotpath
func (s *FIRStream) Push(v float64) float64 {
	s.delay[s.pos] = v
	s.pos = (s.pos + 1) % len(s.delay)
	if s.seen < len(s.delay) {
		s.seen++
	}
	var acc float64
	idx := s.pos - 1
	if idx < 0 {
		idx += len(s.delay)
	}
	for _, t := range s.taps {
		acc += t * s.delay[idx]
		idx--
		if idx < 0 {
			idx += len(s.delay)
		}
	}
	return acc
}

// Reset clears the delay line.
func (s *FIRStream) Reset() {
	for i := range s.delay {
		s.delay[i] = 0
	}
	s.pos = 0
	s.seen = 0
}
