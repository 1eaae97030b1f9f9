package dsp

import (
	"fmt"
	"math"
)

// FIRFilter is a finite-impulse-response filter described by its tap
// coefficients. The zero value is unusable; construct one with a design
// function such as LowPassFIR. The Fig. 7 cascade filters with the
// folded form (FoldedFIR, FusedCascade); the real-valued direct form
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

// sinc is the normalised sinc function sin(pi x)/(pi x).
func sinc(x float64) float64 {
	if x == 0 {
		return 1
	}
	px := math.Pi * x
	return math.Sin(px) / px
}
