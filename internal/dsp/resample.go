package dsp

import "fmt"

// Resample linearly interpolates x (sampled at srcRate) onto a grid at
// dstRate. Both rates must be positive. The output covers the same time
// span as the input.
func Resample(x []float64, srcRate, dstRate float64) ([]float64, error) {
	if srcRate <= 0 || dstRate <= 0 {
		return nil, fmt.Errorf("dsp: sample rates must be positive, got src=%g dst=%g", srcRate, dstRate)
	}
	if len(x) == 0 {
		return nil, nil
	}
	dur := float64(len(x)-1) / srcRate
	n := int(dur*dstRate) + 1
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		t := float64(i) / dstRate * srcRate
		lo := int(t)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := t - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out, nil
}

// Decimate keeps every factor-th sample of x after smoothing with a
// moving average of the same width to limit aliasing.
func Decimate(x []float64, factor int) ([]float64, error) {
	if err := validateLength("decimation factor", factor); err != nil {
		return nil, err
	}
	if factor == 1 {
		out := make([]float64, len(x))
		copy(out, x)
		return out, nil
	}
	smoothed, err := MovingAverage(x, factor)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(x)/factor+1)
	for i := 0; i < len(smoothed); i += factor {
		out = append(out, smoothed[i])
	}
	return out, nil
}
