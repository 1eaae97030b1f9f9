package dsp

import (
	"fmt"
	"math"
)

// This file holds the direct-form float64 FIR and the running-sum moving
// average, the oracles of DESIGN.md §13's error budget: the folded
// cascade (FoldedFIR, FusedCascade, MovingAverageInto) is checked
// against them, never the reverse.

// NewFIRFilter wraps an explicit set of tap coefficients. The taps are
// copied so the caller retains ownership of its slice.
func NewFIRFilter(taps []float64) (*FIRFilter, error) {
	if len(taps) == 0 {
		return nil, fmt.Errorf("dsp: FIR filter needs at least one tap")
	}
	t := make([]float64, len(taps))
	copy(t, taps)
	return &FIRFilter{taps: t}, nil
}

// Apply filters x and returns a slice of the same length. The output is
// compensated for the filter's group delay (order/2 samples) so that
// features in the output remain time-aligned with the input; edges are
// handled by replicating the first and last input samples.
func (f *FIRFilter) Apply(x []float64) []float64 {
	out := make([]float64, len(x))
	f.ApplyInto(out, x) // lengths match by construction
	return out
}

// ApplyInto filters x into dst with the same delay compensation as
// Apply, performing no allocations. dst must have the same length as x
// and must not alias it: the filter reads neighbouring input samples
// after their output positions have been written.
func (f *FIRFilter) ApplyInto(dst, x []float64) error {
	n := len(x)
	if len(dst) != n {
		return errSampleCount(len(dst), n)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] == &x[0] {
		return errAliased("ApplyInto")
	}
	delay := (len(f.taps) - 1) / 2
	for i := 0; i < n; i++ {
		var acc float64
		for j, t := range f.taps {
			k := i + delay - j
			switch {
			case k < 0:
				k = 0
			case k >= n:
				k = n - 1
			}
			acc += t * x[k]
		}
		dst[i] = acc
	}
	return nil
}

// FrequencyResponse evaluates the filter's complex frequency response at
// normalised frequency fn in [0, 0.5].
func (f *FIRFilter) FrequencyResponse(fn float64) complex128 {
	var re, im float64
	for i, t := range f.taps {
		ang := 2 * math.Pi * fn * float64(i)
		re += t * math.Cos(ang)
		im -= t * math.Sin(ang)
	}
	return complex(re, im)
}

// runningSumMovingAverage smooths x into dst with the same centred,
// edge-shrinking window as MovingAverage, maintaining the window sum
// incrementally instead of through a prefix array. dst must have the
// same length as x and must not alias it.
func runningSumMovingAverage(dst, x []float64, window int) error {
	if err := validateLength("smoothing window", window); err != nil {
		return err
	}
	n := len(x)
	if len(dst) != n {
		return errSampleCount(len(dst), n)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] == &x[0] {
		return errAliased("runningSumMovingAverage")
	}
	half := window / 2
	lo, hi := 0, half
	if hi >= n {
		hi = n - 1
	}
	var sum float64
	for i := lo; i <= hi; i++ {
		sum += x[i]
	}
	dst[0] = sum / float64(hi-lo+1)
	for i := 1; i < n; i++ {
		if nhi := i + half; nhi < n && nhi > hi {
			sum += x[nhi]
			hi = nhi
		}
		if nlo := i - half; nlo > lo {
			sum -= x[lo]
			lo = nlo
		}
		dst[i] = sum / float64(hi-lo+1)
	}
	return nil
}
