package dsp

import (
	"math"
	"sort"
)

// sqrt is a trivial indirection so smooth.go can avoid importing math.
func sqrt(v float64) float64 { return math.Sqrt(v) }

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// samples.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var acc float64
	for _, v := range x {
		d := v - m
		acc += d * d
	}
	return acc / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// RMS returns the root-mean-square of x, or 0 for an empty slice.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var acc float64
	for _, v := range x {
		acc += v * v
	}
	return math.Sqrt(acc / float64(len(x)))
}

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

// DemeanInPlace subtracts the mean from x in place and returns x.
func DemeanInPlace(x []float64) []float64 {
	m := Mean(x)
	for i := range x {
		x[i] -= m
	}
	return x
}

// DetrendLinear removes the least-squares straight-line fit from x and
// returns a new slice, leaving the input untouched. It is used to strip
// slow posture drift before variance estimation.
func DetrendLinear(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	if n < 2 {
		copy(out, x)
		return out
	}
	// Least squares fit y = a + b*t with t = 0..n-1.
	var sumT, sumY, sumTY, sumTT float64
	for i, v := range x {
		t := float64(i)
		sumT += t
		sumY += v
		sumTY += t * v
		sumTT += t * t
	}
	fn := float64(n)
	den := fn*sumTT - sumT*sumT
	var a, b float64
	if den != 0 {
		b = (fn*sumTY - sumT*sumY) / den
		a = (sumY - b*sumT) / fn
	} else {
		a = sumY / fn
	}
	for i, v := range x {
		out[i] = v - (a + b*float64(i))
	}
	return out
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

// CrossCorrelateAtLag computes the normalised cross-correlation of a and
// b at the given integer lag (b shifted right by lag relative to a). The
// result is in [-1, 1]; degenerate inputs give 0.
func CrossCorrelateAtLag(a, b []float64, lag int) float64 {
	var sa, sb, sab, saa, sbb float64
	var count int
	for i := range a {
		j := i - lag
		if j < 0 || j >= len(b) {
			continue
		}
		sa += a[i]
		sb += b[j]
		count++
	}
	if count < 2 {
		return 0
	}
	ma := sa / float64(count)
	mb := sb / float64(count)
	for i := range a {
		j := i - lag
		if j < 0 || j >= len(b) {
			continue
		}
		da := a[i] - ma
		db := b[j] - mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	den := math.Sqrt(saa * sbb)
	if den == 0 {
		return 0
	}
	return sab / den
}
