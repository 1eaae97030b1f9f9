// Package iq provides complex in-phase/quadrature signal utilities:
// amplitude and phase extraction, phase unwrapping, two-dimensional
// variance of I/Q point clouds, and Pratt's algebraic circle fit.
// BlinkRadar's core insight is that eye reflections
// trace arc-shaped trajectories in the I/Q plane — the dynamic vector
// rotating around the static multipath vector — so the eye's range bin
// is found by 2-D variance and the blink waveform is recovered as the
// distance of each sample from a Pratt-fitted circle centre.
package iq

import (
	"math"
	"math/cmplx"
)

// Amplitudes returns |z| for each sample.
func Amplitudes(z []complex128) []float64 {
	out := make([]float64, len(z))
	for i, c := range z {
		out[i] = cmplx.Abs(c)
	}
	return out
}

// Phases returns the wrapped phase of each sample in (-pi, pi].
func Phases(z []complex128) []float64 {
	out := make([]float64, len(z))
	for i, c := range z {
		out[i] = cmplx.Phase(c)
	}
	return out
}

// UnwrapPhases returns the phase of each sample with 2*pi discontinuities
// removed, so small physical displacements produce a continuous phase
// track (Eq. 9 of the paper: delta-phi = -4*pi*f0*delta-d/c).
func UnwrapPhases(z []complex128) []float64 {
	return Unwrap(Phases(z))
}

// Unwrap removes 2*pi jumps from a wrapped phase sequence in a new
// slice.
func Unwrap(phase []float64) []float64 {
	out := make([]float64, len(phase))
	copy(out, phase)
	UnwrapInPlace(out)
	return out
}

// UnwrapInPlace is Unwrap overwriting its input, for callers that own
// the buffer.
func UnwrapInPlace(phase []float64) {
	if len(phase) == 0 {
		return
	}
	prev := phase[0] // the wrapped value, before any offset
	offset := 0.0
	for i := 1; i < len(phase); i++ {
		p := phase[i]
		d := p - prev
		if d > math.Pi {
			offset -= 2 * math.Pi
		} else if d < -math.Pi {
			offset += 2 * math.Pi
		}
		phase[i] = p + offset
		prev = p
	}
}

// Mean returns the centroid of the samples, or 0 for an empty slice.
func Mean(z []complex128) complex128 {
	if len(z) == 0 {
		return 0
	}
	var sum complex128
	for _, c := range z {
		sum += c
	}
	return sum / complex(float64(len(z)), 0)
}

// Variance2D returns the total two-dimensional variance of the samples
// about their centroid: E[|z - mean|^2]. This is the statistic the
// paper maximises over range bins to find the eye: embedded respiration
// and BCG interference makes the eye bin's I/Q cloud spread into an arc
// even between blinks, while pure-noise bins stay compact.
func Variance2D(z []complex128) float64 {
	if len(z) < 2 {
		return 0
	}
	m := Mean(z)
	var acc float64
	for _, c := range z {
		d := c - m
		acc += real(d)*real(d) + imag(d)*imag(d)
	}
	return acc / float64(len(z))
}

// Covariance returns the 2x2 covariance matrix entries (varI, varQ,
// covIQ) of the I/Q point cloud about its centroid.
func Covariance(z []complex128) (varI, varQ, covIQ float64) {
	if len(z) < 2 {
		return 0, 0, 0
	}
	m := Mean(z)
	n := float64(len(z))
	for _, c := range z {
		di := real(c) - real(m)
		dq := imag(c) - imag(m)
		varI += di * di
		varQ += dq * dq
		covIQ += di * dq
	}
	return varI / n, varQ / n, covIQ / n
}

// Eccentricity returns a measure in [0, 1] of how elongated the I/Q
// point cloud is: 0 for an isotropic cloud, approaching 1 for a
// degenerate line. Arc-shaped trajectories from small-displacement
// motion are strongly anisotropic, which helps distinguish them from
// circular thermal-noise clouds of similar variance.
func Eccentricity(z []complex128) float64 {
	varI, varQ, covIQ := Covariance(z)
	return eccentricityOf(varI, varQ, covIQ)
}

// EccentricityFromCov is Eccentricity on precomputed covariance
// entries, for callers that maintain sliding covariance sums and need
// the elongation without a pass over the samples.
func EccentricityFromCov(varI, varQ, covIQ float64) float64 {
	return eccentricityOf(varI, varQ, covIQ)
}

// eccentricityOf is Eccentricity on precomputed covariance entries, so
// moment accumulators can reuse it without a pass over the samples.
func eccentricityOf(varI, varQ, covIQ float64) float64 {
	tr := varI + varQ
	if tr <= 0 {
		return 0
	}
	// Eigenvalues of the symmetric 2x2 covariance matrix.
	d := math.Sqrt((varI-varQ)*(varI-varQ) + 4*covIQ*covIQ)
	l1 := (tr + d) / 2
	l2 := (tr - d) / 2
	if l1 <= 0 {
		return 0
	}
	if l2 < 0 {
		l2 = 0
	}
	return math.Sqrt(1 - l2/l1)
}

// AngularExtent returns the angle in radians subtended at center by the
// sample cloud: the spread between the minimum and maximum sample angle
// measured around center. It quantifies how much of the fitted circle an
// arc trajectory covers. The phases are unwrapped in a single streaming
// pass (same arithmetic as Unwrap) so the bin-selection hot path stays
// allocation-free.
//
//blinkradar:hotpath
func AngularExtent(z []complex128, center complex128) float64 {
	if len(z) < 2 {
		return 0
	}
	prev := cmplx.Phase(z[0] - center)
	lo, hi := prev, prev
	offset := 0.0
	for _, c := range z[1:] {
		p := cmplx.Phase(c - center)
		d := p - prev
		if d > math.Pi {
			offset -= 2 * math.Pi
		} else if d < -math.Pi {
			offset += 2 * math.Pi
		}
		u := p + offset
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
		prev = p
	}
	ext := hi - lo
	if ext > 2*math.Pi {
		ext = 2 * math.Pi
	}
	return ext
}
