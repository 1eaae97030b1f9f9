package dsp

import (
	"fmt"
	"math"
)

// foldTolerance is the maximum relative asymmetry allowed when folding a
// nominally linear-phase tap set: windowed-sinc designs are symmetric in
// exact arithmetic, but the window evaluation (cos of non-negated
// arguments) leaves last-ulp differences between mirrored taps. Folding
// averages each mirror pair, which perturbs the response by at most this
// fraction of a tap — far below the cascade's documented error budget.
const foldTolerance = 1e-9

// FoldedFIR evaluates a symmetric (linear-phase) FIR with folded taps:
// the mirror symmetry t[j] == t[order-j] lets each pair of taps multiply
// the pre-summed inputs x[k+d-j] + x[k-d+j] once, halving the multiply
// count of the direct form. Construct with NewFoldedFIR or
// FoldedLowPass; the zero value is unusable.
//
// Output semantics match the direct-form FIR (the float64 oracle in
// this package's tests) exactly: group-delay compensation by order/2
// samples and edge handling by replicating the first and last input
// samples.
type FoldedFIR struct {
	// pairs[j] is the folded coefficient for mirror pair (j, order-j),
	// j < len(pairs); center is the unpaired middle tap (even order
	// only).
	pairs     []float64
	center    float64
	hasCenter bool
	order     int
}

// NewFoldedFIR folds an explicit symmetric tap set. Mirror pairs must
// agree to within a relative tolerance of 1e-9 (they are averaged, so
// design-time rounding asymmetry is absorbed); genuinely asymmetric taps
// are rejected.
func NewFoldedFIR(taps []float64) (*FoldedFIR, error) {
	n := len(taps)
	if n == 0 {
		return nil, fmt.Errorf("dsp: folded FIR needs at least one tap")
	}
	order := n - 1
	var scale float64
	for _, t := range taps {
		if a := math.Abs(t); a > scale {
			scale = a
		}
	}
	npairs := n / 2
	f := &FoldedFIR{
		pairs: make([]float64, npairs),
		order: order,
	}
	for j := 0; j < npairs; j++ {
		a, b := taps[j], taps[order-j]
		if math.Abs(a-b) > foldTolerance*scale {
			return nil, fmt.Errorf("dsp: taps %d and %d differ by %g: not a symmetric filter", j, order-j, a-b)
		}
		f.pairs[j] = (a + b) / 2
	}
	if n%2 == 1 {
		f.hasCenter = true
		f.center = taps[npairs]
	}
	return f, nil
}

// FoldedLowPass designs a Hamming-window low-pass FIR (as LowPassFIR)
// and folds it. This is the kernel behind the paper's Fig. 7 cascade.
func FoldedLowPass(order int, cutoff float64) (*FoldedFIR, error) {
	lp, err := LowPassFIR(order, cutoff)
	if err != nil {
		return nil, err
	}
	return NewFoldedFIR(lp.taps)
}

// is26 reports whether the filter is the paper's order-26 shape, for
// which a dedicated interior kernel exists.
func (f *FoldedFIR) is26() bool {
	return f.order == 26 && f.hasCenter && len(f.pairs) == 13
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
	kLo, kHi := foldedApplyEdges(f.pairs, f.center, f.hasCenter, f.order, dst, x)
	if f.is26() {
		foldedInterior26(f.pairs, f.center, dst, x, kLo, kHi)
	} else {
		foldedInteriorGen(f.pairs, f.center, f.hasCenter, f.order, dst, x, kLo, kHi)
	}
	return nil
}

// foldedApplyEdges writes the clamped edge outputs (the first and last
// delay samples, where the window runs off the series) and returns the
// interior range [kLo, kHi] still to be filled.
func foldedApplyEdges(pairs []float64, center float64, hasCenter bool, order int, dst, x []float64) (kLo, kHi int) {
	n := len(x)
	delay := order / 2
	// Interior outputs k read x[k+delay-order .. k+delay] unclamped.
	kLo = order - delay
	kHi = n - 1 - delay
	for k := 0; k < kLo && k < n; k++ {
		dst[k] = foldedEdgeAt(pairs, center, hasCenter, order, x, k)
	}
	for k := kHi + 1; k < n; k++ {
		if k < kLo {
			continue // already written by the prologue (tiny n)
		}
		dst[k] = foldedEdgeAt(pairs, center, hasCenter, order, x, k)
	}
	return kLo, kHi
}

// foldedInteriorGen is the generic interior: folded dual-accumulator
// direct form (the two running sums break the FP add dependency chain)
// for any symmetric design.
func foldedInteriorGen(pairs []float64, center float64, hasCenter bool, order int, dst, x []float64, kLo, kHi int) {
	delay := order / 2
	npairs := len(pairs)
	for k := kLo; k <= kHi; k++ {
		hi := k + delay
		lo := k + delay - order
		var a0, a1 float64
		j := 0
		for ; j+1 < npairs; j += 2 {
			a0 += pairs[j] * (x[hi-j] + x[lo+j])
			a1 += pairs[j+1] * (x[hi-j-1] + x[lo+j+1])
		}
		if j < npairs {
			a0 += pairs[j] * (x[hi-j] + x[lo+j])
		}
		acc := a0 + a1
		if hasCenter {
			acc += center * x[k]
		}
		dst[k] = acc
	}
}

// foldedInterior26 is the interior specialised for the paper's order-26
// design: the 13 folded taps are hoisted into scalars (they fit the
// machine's FP registers), the mirror-pair sums are fully unrolled, and
// the window is a constant-width subslice so every access is provably
// in bounds. Two accumulator chains break the FP-add latency chain.
func foldedInterior26(pairs []float64, center float64, dst, x []float64, kLo, kHi int) {
	p0, p1, p2, p3, p4, p5, p6 := pairs[0], pairs[1], pairs[2], pairs[3], pairs[4], pairs[5], pairs[6]
	p7, p8, p9, p10, p11, p12 := pairs[7], pairs[8], pairs[9], pairs[10], pairs[11], pairs[12]
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

// foldedEdgeAt evaluates one output with both mirror indices clamped to
// the input range, matching the direct-form FIR's edge replication.
func foldedEdgeAt(pairs []float64, center float64, hasCenter bool, order int, x []float64, k int) float64 {
	n := len(x)
	delay := order / 2
	var acc float64
	for j, p := range pairs {
		a := k + delay - j
		if a < 0 {
			a = 0
		} else if a >= n {
			a = n - 1
		}
		b := k + delay - order + j
		if b < 0 {
			b = 0
		} else if b >= n {
			b = n - 1
		}
		acc += p * (x[a] + x[b])
	}
	if hasCenter {
		c := k // k + delay - order/2 == k for even order
		if c >= n {
			c = n - 1
		}
		acc += center * x[c]
	}
	return acc
}

// FusedCascade runs the paper's Fig. 7 noise-reduction chain — folded
// symmetric FIR, then centred edge-shrinking moving average — over a
// series with no intermediate buffer: the FIR stage writes the output
// slice directly and the smoothing stage then runs in place over it,
// buffering only a window-sized ring of pre-smoothing values so every
// sample is still available until the last window that needs it has
// been emitted. The input is traversed exactly once and the
// series-length intermediate array of the sequential pipeline never
// exists.
//
// Not safe for concurrent use (the ring is shared across calls).
type FusedCascade struct {
	fir    *FoldedFIR
	window int
	ring   []float64
}

// NewFusedCascade designs the folded FIR stage once (order/cutoff as
// LowPassFIR with a Hamming window) and sizes the ring for the given
// smoothing window; Apply calls are allocation-free.
func NewFusedCascade(order int, cutoff float64, smooth int) (*FusedCascade, error) {
	fir, err := FoldedLowPass(order, cutoff)
	if err != nil {
		return nil, err
	}
	if err := validateLength("smoothing window", smooth); err != nil {
		return nil, err
	}
	// One slot beyond the window span: the newest raw value lands
	// exactly 2·half+1 slots after the value evicted in the same
	// iteration, and insertion happens first (matching the reference
	// smoother's summation order).
	return &FusedCascade{
		fir:    fir,
		window: smooth,
		ring:   make([]float64, 2*(smooth/2)+2),
	}, nil
}

// ApplyInto runs the fused FIR+smoother over x into dst. dst must have
// the same length as x and must not alias it (the FIR stage writes dst
// while later outputs still read x).
//
//blinkradar:hotpath
func (c *FusedCascade) ApplyInto(dst, x []float64) error {
	if len(dst) > 0 && len(x) > 0 && &dst[0] == &x[0] {
		return errAliased("FusedCascade.ApplyInto")
	}
	if err := c.fir.ApplyInto(dst, x); err != nil {
		return err
	}
	maInPlace(dst, c.ring, c.window)
	return nil
}

// maInPlace smooths y in place with the centred edge-shrinking moving
// average of MovingAverageInto. Raw values about to be overwritten are
// parked in the ring until the last window that includes them has been
// emitted; inputs are read-ahead only (y[i+half] is always read before
// iteration i+half overwrites it), so no second buffer of the series is
// needed.
func maInPlace(y []float64, ring []float64, window int) {
	n := len(y)
	if n == 0 {
		return
	}
	half := window / 2
	rl := len(ring)
	lo, hi := 0, half
	if hi >= n {
		hi = n - 1
	}
	var sum float64
	wp := 0 // ring slot of the next insert (wrapping counter, no modulo)
	for k := 0; k <= hi; k++ {
		v := y[k]
		ring[wp] = v
		if wp++; wp == rl {
			wp = 0
		}
		sum += v
	}
	ep := 0 // ring slot of the raw value at index lo
	span := hi - lo + 1
	inv := 1 / float64(span)
	y[0] = sum * inv
	for i := 1; i < n; i++ {
		if nhi := i + half; nhi < n && nhi > hi {
			v := y[nhi]
			ring[wp] = v
			if wp++; wp == rl {
				wp = 0
			}
			sum += v
			hi = nhi
		}
		if nlo := i - half; nlo > lo {
			sum -= ring[ep]
			if ep++; ep == rl {
				ep = 0
			}
			lo = nlo
		}
		// The window span only changes near the series edges; the
		// steady state replaces the per-sample divide with a multiply
		// by the cached reciprocal (≤1 ulp from the reference divide).
		if s := hi - lo + 1; s != span {
			span = s
			inv = 1 / float64(span)
		}
		y[i] = sum * inv
	}
}
