package dsp

import (
	"math"
	"sort"
)

// Median returns the median of x, or 0 for an empty slice. The input is
// not modified.
func Median(x []float64) float64 { return Percentile(x, 50) }

// Percentile returns the p-th percentile of x (0 <= p <= 100) using
// linear interpolation between order statistics. The input is not
// modified; an empty slice yields 0.
func Percentile(x []float64, p float64) float64 {
	sorted := make([]float64, len(x))
	copy(sorted, x)
	return PercentileInPlace(sorted, p)
}

// PercentileInPlace is Percentile sorting x itself instead of a copy,
// for callers that own the buffer.
func PercentileInPlace(x []float64, p float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	sort.Float64s(x)
	if p <= 0 {
		return x[0]
	}
	if p >= 100 {
		return x[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return x[lo]
	}
	frac := pos - float64(lo)
	return x[lo]*(1-frac) + x[hi]*frac
}

// MAD returns the median absolute deviation of x, a robust scale
// estimate used by the tracker's restart heuristic.
func MAD(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Median(x)
	dev := make([]float64, len(x))
	for i, v := range x {
		dev[i] = math.Abs(v - m)
	}
	return Median(dev)
}

// MinMax returns the minimum and maximum of x. Both are 0 for an empty
// slice.
func MinMax(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// ArgMax returns the index of the largest element of x, or -1 for an
// empty slice. Ties resolve to the first occurrence.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i, v := range x[1:] {
		if v > x[best] {
			best = i + 1
		}
	}
	return best
}

// SNRdB estimates the signal-to-noise ratio in decibels between a clean
// reference and an observed noisy version of it:
// 10*log10(P_signal / P_noise) with noise = observed - reference.
// It returns +Inf for an exact match and 0 when either input is empty.
func SNRdB(reference, observed []float64) float64 {
	n := min(len(reference), len(observed))
	if n == 0 {
		return 0
	}
	var pSig, pNoise float64
	for i := 0; i < n; i++ {
		pSig += reference[i] * reference[i]
		d := observed[i] - reference[i]
		pNoise += d * d
	}
	if pNoise == 0 {
		return math.Inf(1)
	}
	if pSig == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(pSig/pNoise)
}
