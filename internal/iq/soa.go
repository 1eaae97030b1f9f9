package iq

import "math"

// Planes32 is the struct-of-arrays frame layout of the real-time
// pipeline: the in-phase and quadrature components of a complex series
// stored as two separate float32 planes. Splitting the components keeps
// each plane's memory traffic half of the equivalent []complex128 and
// lets the per-plane kernels (sanitize, background subtraction, the
// bin-selection ring) run as plain real-valued passes instead of complex
// arithmetic. Precision policy: raw radar samples carry far fewer
// significant bits than a float32 mantissa, so the planes hold samples
// and every accumulated statistic is kept in float64 (see
// MomentSums32).
type Planes32 struct {
	I []float32
	Q []float32
}

// MakePlanes32 allocates an n-sample plane pair.
func MakePlanes32(n int) Planes32 {
	return Planes32{I: make([]float32, n), Q: make([]float32, n)}
}

// Len returns the number of samples (the shorter plane if they differ).
func (p Planes32) Len() int {
	if len(p.I) < len(p.Q) {
		return len(p.I)
	}
	return len(p.Q)
}

// At returns sample i as a complex128.
func (p Planes32) At(i int) complex128 {
	return complex(float64(p.I[i]), float64(p.Q[i]))
}

// Set stores z at index i.
func (p Planes32) Set(i int, z complex128) {
	p.I[i] = float32(real(z))
	p.Q[i] = float32(imag(z))
}

// FromComplex fills the planes from a complex frame. Lengths must
// match; this is the sanctioned float64→float32 narrowing boundary of
// the pipeline (raw samples, never accumulated statistics).
//
//blinkradar:convert
func (p Planes32) FromComplex(frame []complex128) {
	_ = p.I[len(frame)-1]
	_ = p.Q[len(frame)-1]
	for i, z := range frame {
		p.I[i] = float32(real(z))
		p.Q[i] = float32(imag(z))
	}
}

// ToComplex widens the planes into dst, which must have at least Len
// samples, and returns the filled prefix.
//
//blinkradar:convert
func (p Planes32) ToComplex(dst []complex128) []complex128 {
	n := p.Len()
	dst = dst[:n]
	for i := range dst {
		dst[i] = complex(float64(p.I[i]), float64(p.Q[i]))
	}
	return dst
}

// MomentSums32 accumulates the five I/Q moment sums of a plane pair in
// one pass: Σi, Σq, Σi², Σq², Σi·q. Accumulation is float64 — a
// float32 running sum would random-walk its rounding error with the
// window length — which is why the return values, and every statistic
// derived from them, stay in float64 on the SoA path.
//
//blinkradar:hotpath
func MomentSums32(ip, qp []float32) (sumI, sumQ, sumII, sumQQ, sumIQ float64) {
	n := len(ip)
	if len(qp) < n {
		n = len(qp)
	}
	for k := 0; k < n; k++ {
		x := float64(ip[k])
		y := float64(qp[k])
		sumI += x
		sumQ += y
		sumII += x * x
		sumQQ += y * y
		sumIQ += x * y
	}
	return
}

// Variance2DPlanes is Variance2D over a float32 plane pair: the total
// 2-D variance of the I/Q cloud about its centroid, computed from one
// MomentSums32 pass.
func Variance2DPlanes(ip, qp []float32) float64 {
	n := len(ip)
	if len(qp) < n {
		n = len(qp)
	}
	if n < 2 {
		return 0
	}
	sumI, sumQ, sumII, sumQQ, _ := MomentSums32(ip, qp)
	fn := float64(n)
	mi, mq := sumI/fn, sumQ/fn
	varI := sumII/fn - mi*mi
	varQ := sumQQ/fn - mq*mq
	if varI < 0 {
		varI = 0
	}
	if varQ < 0 {
		varQ = 0
	}
	return varI + varQ
}

// FinitePlanes reports whether every sample of the plane pair is
// finite in both components (the SoA mirror of a per-sample isFinite
// sweep). NaN propagates through float64→float32 narrowing and ±Inf
// stays infinite, so checking the narrowed planes catches exactly the
// samples the complex-path sweep would.
//
//blinkradar:hotpath
func FinitePlanes(ip, qp []float32) bool {
	for _, v := range ip {
		d := float64(v)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return false
		}
	}
	for _, v := range qp {
		d := float64(v)
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return false
		}
	}
	return true
}
