package dsp

// The paper's Fig. 7 noise-reduction cascade has one design: an
// order-26 Hamming-window low-pass FIR at normalised cutoff 0.04,
// followed by a 50-point centred moving average.
const (
	cascadeOrder  = 26
	cascadeCutoff = 0.04
	cascadeSmooth = 50

	// foldedHalf is the FIR's group delay and its number of mirror
	// pairs: tap j pairs with tap cascadeOrder-j around the centre tap.
	foldedHalf = cascadeOrder / 2
)

// FoldedFIR evaluates the cascade's symmetric (linear-phase) FIR with
// folded taps: the mirror symmetry t[j] == t[26-j] lets each pair of
// taps multiply the pre-summed inputs x[k+13-j] + x[k-13+j] once,
// halving the multiply count of the direct form. Construct with
// FoldedLowPass; the zero value is unusable.
//
// Output semantics match the direct-form FIR (the float64 oracle in
// this package's tests) exactly: group-delay compensation by 13 samples
// and edge handling by replicating the first and last input samples.
type FoldedFIR struct {
	// pairs[j] is the folded coefficient for mirror pair (j, 26-j);
	// center is the unpaired middle tap.
	pairs  [foldedHalf]float64
	center float64
}

// FoldedLowPass designs the cascade's Hamming-window low-pass FIR (as
// LowPassFIR(26, 0.04)) and folds it. The windowed-sinc taps are
// symmetric in exact arithmetic, but the window evaluation leaves
// last-ulp differences between mirrored taps, so each mirror pair is
// averaged.
func FoldedLowPass() *FoldedFIR {
	lp, _ := LowPassFIR(cascadeOrder, cascadeCutoff) // a valid design: cannot fail
	f := &FoldedFIR{center: lp.taps[foldedHalf]}
	for j := range f.pairs {
		f.pairs[j] = (lp.taps[j] + lp.taps[cascadeOrder-j]) / 2
	}
	return f
}

// ApplyInto filters x into dst with the same delay compensation and
// edge replication as the direct-form FIR, using the folded form. dst
// must have the same length as x and must not alias it.
//
//blinkradar:hotpath
func (f *FoldedFIR) ApplyInto(dst, x []float64) error {
	n := len(x)
	if len(dst) != n {
		return errSampleCount(len(dst), n)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] == &x[0] {
		return errAliased("FoldedFIR.ApplyInto")
	}
	// Outputs in [foldedHalf, n-1-foldedHalf] read their whole window
	// unclamped; the rest clamp at the series edges.
	for k := 0; k < min(foldedHalf, n); k++ {
		dst[k] = f.edgeAt(x, k)
	}
	for k := max(n-foldedHalf, foldedHalf); k < n; k++ {
		dst[k] = f.edgeAt(x, k)
	}
	f.interior(dst, x, foldedHalf, n-1-foldedHalf)
	return nil
}

// interior fills outputs kLo..kHi: the 13 folded taps are hoisted into
// scalars (they fit the machine's FP registers), the mirror-pair sums
// are fully unrolled, and the window is a constant-width subslice so
// every access is provably in bounds. Two accumulator chains break the
// FP-add latency chain.
func (f *FoldedFIR) interior(dst, x []float64, kLo, kHi int) {
	p0, p1, p2, p3, p4, p5, p6 := f.pairs[0], f.pairs[1], f.pairs[2], f.pairs[3], f.pairs[4], f.pairs[5], f.pairs[6]
	p7, p8, p9, p10, p11, p12 := f.pairs[7], f.pairs[8], f.pairs[9], f.pairs[10], f.pairs[11], f.pairs[12]
	center := f.center
	for k := kLo; k <= kHi; k++ {
		w := x[k-13 : k+14]
		a0 := p0 * (w[26] + w[0])
		a1 := p1 * (w[25] + w[1])
		a0 += p2 * (w[24] + w[2])
		a1 += p3 * (w[23] + w[3])
		a0 += p4 * (w[22] + w[4])
		a1 += p5 * (w[21] + w[5])
		a0 += p6 * (w[20] + w[6])
		a1 += p7 * (w[19] + w[7])
		a0 += p8 * (w[18] + w[8])
		a1 += p9 * (w[17] + w[9])
		a0 += p10 * (w[16] + w[10])
		a1 += p11 * (w[15] + w[11])
		a0 += p12 * (w[14] + w[12])
		dst[k] = a0 + a1 + center*w[13]
	}
}

// edgeAt evaluates output k with the mirror indices clamped to the
// input range, matching the direct-form FIR's edge replication. Only
// the upper index can run past the end and only the lower one before
// the start.
func (f *FoldedFIR) edgeAt(x []float64, k int) float64 {
	n := len(x)
	var acc float64
	for j, p := range f.pairs {
		acc += p * (x[min(k+foldedHalf-j, n-1)] + x[max(k-foldedHalf+j, 0)])
	}
	acc += f.center * x[k]
	return acc
}

// FusedCascade runs the paper's Fig. 7 noise-reduction chain — the
// folded order-26 FIR, then the 50-point centred edge-shrinking moving
// average — filtering into scratch it owns and smoothing into the
// caller's buffer. The scratch grows to the longest series filtered and
// is reused afterwards, so repeated calls allocate nothing.
//
// Not safe for concurrent use (the scratch is shared across calls).
type FusedCascade struct {
	fir      *FoldedFIR
	filtered []float64
	prefix   []float64
}

// NewFusedCascade designs the folded FIR stage once.
func NewFusedCascade() *FusedCascade {
	return &FusedCascade{fir: FoldedLowPass()}
}

// ApplyInto runs the FIR and the smoother over x into dst. dst must
// have the same length as x and must not alias it.
//
//blinkradar:hotpath
func (c *FusedCascade) ApplyInto(dst, x []float64) error {
	if len(dst) > 0 && len(x) > 0 && &dst[0] == &x[0] {
		return errAliased("FusedCascade.ApplyInto")
	}
	n := len(x)
	if cap(c.filtered) < n {
		buf := make([]float64, 2*n+1) //blinkvet:ignore hotpathalloc -- grow-once scratch
		c.filtered, c.prefix = buf[:n:n], buf[n:]
	}
	filtered := c.filtered[:n]
	if err := c.fir.ApplyInto(filtered, x); err != nil {
		return err
	}
	// The smoother rejects a dst whose length differs from x's.
	return MovingAverageInto(dst, filtered, c.prefix, cascadeSmooth)
}
