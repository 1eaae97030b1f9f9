package iq

// Planes32 is the struct-of-arrays frame layout of the real-time
// pipeline: the in-phase and quadrature components of a complex series
// stored as two separate float32 planes. Splitting the components keeps
// each plane's memory traffic half of the equivalent []complex128 and
// lets the per-plane kernels (sanitize, background subtraction, the
// bin-selection ring) run as plain real-valued passes instead of complex
// arithmetic. Precision policy: raw radar samples carry far fewer
// significant bits than a float32 mantissa, so the planes hold samples
// and every accumulated statistic is kept in float64.
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
