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
// count of the direct form. It carries both float64 and float32 tap
// images so the same design serves the reference and the SoA frame
// paths. Construct with NewFoldedFIR or FoldedLowPass; the zero value is
// unusable.
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
	pairs32   []float32
	center    float64
	center32  float32
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
		pairs:   make([]float64, npairs),
		pairs32: make([]float32, npairs),
		order:   order,
	}
	for j := 0; j < npairs; j++ {
		a, b := taps[j], taps[order-j]
		if math.Abs(a-b) > foldTolerance*scale {
			return nil, fmt.Errorf("dsp: taps %d and %d differ by %g: not a symmetric filter", j, order-j, a-b)
		}
		p := (a + b) / 2
		f.pairs[j] = p
		f.pairs32[j] = float32(p)
	}
	if n%2 == 1 {
		f.hasCenter = true
		f.center = taps[npairs]
		f.center32 = float32(taps[npairs])
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

// Order returns the filter order (number of taps minus one).
func (f *FoldedFIR) Order() int { return f.order }

// is26 reports whether the filter is the paper's order-26 shape, for
// which dedicated interior kernels exist.
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

// ApplyInto32 is ApplyInto over float32 planes: taps and accumulators
// are float32, trading last-bits accuracy (documented in DESIGN.md §13)
// for roughly half the FLOP latency on the SoA frame path.
//
//blinkradar:hotpath
func (f *FoldedFIR) ApplyInto32(dst, x []float32) error {
	n := len(x)
	if len(dst) != n {
		return errSampleCount(len(dst), n)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] == &x[0] {
		return errAliased("FoldedFIR.ApplyInto32")
	}
	kLo, kHi := foldedApplyEdges(f.pairs32, f.center32, f.hasCenter, f.order, dst, x)
	if f.is26() {
		foldedInterior26f32(f.pairs32, f.center32, dst, x, kLo, kHi)
	} else {
		foldedInteriorGen(f.pairs32, f.center32, f.hasCenter, f.order, dst, x, kLo, kHi)
	}
	return nil
}

// foldedApplyEdges writes the clamped edge outputs (the first and last
// delay samples, where the window runs off the series) and returns the
// interior range [kLo, kHi] still to be filled.
func foldedApplyEdges[F float32 | float64](pairs []F, center F, hasCenter bool, order int, dst, x []F) (kLo, kHi int) {
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
func foldedInteriorGen[F float32 | float64](pairs []F, center F, hasCenter bool, order int, dst, x []F, kLo, kHi int) {
	delay := order / 2
	npairs := len(pairs)
	for k := kLo; k <= kHi; k++ {
		hi := k + delay
		lo := k + delay - order
		var a0, a1 F
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
//
// foldedInterior26 and foldedInterior26f32 are deliberately concrete
// duplicates rather than one generic function: the gcshape-stenciled
// instantiations keep the taps in a dictionary-addressed spill slot
// instead of registers, and measure ~1.7x slower than this exact code
// compiled concretely.
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

// foldedInterior26f32 is foldedInterior26 over float32 planes; see that
// function for why the two are concrete duplicates.
func foldedInterior26f32(pairs []float32, center float32, dst, x []float32, kLo, kHi int) {
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
func foldedEdgeAt[F float32 | float64](pairs []F, center F, hasCenter bool, order int, x []F, k int) F {
	n := len(x)
	delay := order / 2
	var acc F
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
// symmetric FIR, centred edge-shrinking moving average, and optional
// scalar background subtraction — over a series with no intermediate
// buffer: the FIR stage writes the output slice directly and the
// smoothing stage then runs in place over it, buffering only a
// window-sized ring of pre-smoothing values so every sample is still
// available until the last window that needs it has been emitted. The
// input is traversed exactly once and the series-length intermediate
// array of the sequential pipeline never exists.
//
// The moving-average sum is kept in float64 on both precisions: an
// incrementally-maintained float32 sum would random-walk its rounding
// error across a long series.
//
// Not safe for concurrent use (the ring is shared across calls).
type FusedCascade struct {
	fir    *FoldedFIR
	window int
	ring   []float64
	ring32 []float32
}

// NewFusedCascade designs the folded FIR stage once (order/cutoff as
// LowPassFIR with a Hamming window) and sizes the ring for the given
// smoothing window; Apply calls are allocation-free.
func NewFusedCascade(order int, cutoff float64, smooth int) (*FusedCascade, error) {
	fir, err := FoldedLowPass(order, cutoff)
	if err != nil {
		return nil, err
	}
	return NewFusedCascadeFIR(fir, smooth)
}

// NewFusedCascadeFIR wraps an already-folded FIR with a smoothing stage.
func NewFusedCascadeFIR(fir *FoldedFIR, smooth int) (*FusedCascade, error) {
	if err := validateLength("smoothing window", smooth); err != nil {
		return nil, err
	}
	// One slot beyond the window span: the newest raw value lands
	// exactly 2·half+1 slots after the value evicted in the same
	// iteration, and insertion happens first (matching the reference
	// smoother's summation order).
	rl := 2*(smooth/2) + 2
	return &FusedCascade{
		fir:    fir,
		window: smooth,
		ring:   make([]float64, rl),
		ring32: make([]float32, rl),
	}, nil
}

// Delay returns the FIR group delay in samples.
func (c *FusedCascade) Delay() int { return c.fir.order / 2 }

// ApplyInto runs the fused FIR+smoother over x into dst (no background
// term). dst must have the same length as x and must not alias it (the
// FIR stage writes dst while later outputs still read x).
//
//blinkradar:hotpath
func (c *FusedCascade) ApplyInto(dst, x []float64) error {
	if len(dst) > 0 && len(x) > 0 && &dst[0] == &x[0] {
		return errAliased("FusedCascade.ApplyInto")
	}
	if err := c.fir.ApplyInto(dst, x); err != nil {
		return err
	}
	maSubInPlace(dst, c.ring, c.window, 0)
	return nil
}

// ApplySubInto32 runs the fused cascade over a float32 plane and
// subtracts the scalar background term from every output: the complete
// per-bin Fig. 7 chain in one traversal of the input. Aliasing rules as
// ApplyInto.
//
//blinkradar:hotpath
func (c *FusedCascade) ApplySubInto32(dst, x []float32, sub float32) error {
	if err := c.fir.ApplyInto32(dst, x); err != nil {
		return err
	}
	maSubInPlace32(dst, c.ring32, c.window, sub)
	return nil
}

// ApplyInto32 is ApplySubInto32 with a zero background term.
//
//blinkradar:hotpath
func (c *FusedCascade) ApplyInto32(dst, x []float32) error {
	return c.ApplySubInto32(dst, x, 0)
}

// InPlaceMA32 is the reusable in-place form of MovingAverageInto over a
// float32 plane: a centred edge-shrinking moving average that smooths
// the series where it lies, buffering only a window-sized ring of
// pre-smoothing values. Construct once; Apply is allocation-free. Not
// safe for concurrent use.
type InPlaceMA32 struct {
	ring   []float32
	window int
}

// NewInPlaceMA32 builds a smoother for the given window width.
func NewInPlaceMA32(window int) (*InPlaceMA32, error) {
	if err := validateLength("smoothing window", window); err != nil {
		return nil, err
	}
	return &InPlaceMA32{ring: make([]float32, 2*(window/2)+2), window: window}, nil
}

// Apply smooths y in place.
//
//blinkradar:hotpath
func (m *InPlaceMA32) Apply(y []float32) {
	maSubInPlace32(y, m.ring, m.window, 0)
}

// maSubInPlace smooths y in place with the centred edge-shrinking
// moving average of MovingAverageInto and subtracts sub from every
// output. Raw values about to be overwritten are parked in the ring
// until the last window that includes them has been emitted; inputs are
// read-ahead only (y[i+half] is always read before iteration i+half
// overwrites it), so no second buffer of the series is needed.
//
// maSubInPlace and maSubInPlace32 are concrete duplicates for the same
// measured reason as the interior FIR kernels (see foldedInterior26).
func maSubInPlace(y []float64, ring []float64, window int, sub float64) {
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
	y[0] = sum*inv - sub
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
		y[i] = sum*inv - sub
	}
}

// maSubInPlace32 is maSubInPlace over a float32 plane; the running sum
// stays float64 (see FusedCascade).
func maSubInPlace32(y []float32, ring []float32, window int, sub float32) {
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
	wp := 0
	for k := 0; k <= hi; k++ {
		v := y[k]
		ring[wp] = v
		if wp++; wp == rl {
			wp = 0
		}
		sum += float64(v)
	}
	ep := 0
	span := hi - lo + 1
	inv := 1 / float64(span)
	y[0] = float32(sum*inv) - sub
	for i := 1; i < n; i++ {
		if nhi := i + half; nhi < n && nhi > hi {
			v := y[nhi]
			ring[wp] = v
			if wp++; wp == rl {
				wp = 0
			}
			sum += float64(v)
			hi = nhi
		}
		if nlo := i - half; nlo > lo {
			sum -= float64(ring[ep])
			if ep++; ep == rl {
				ep = 0
			}
			lo = nlo
		}
		if s := hi - lo + 1; s != span {
			span = s
			inv = 1 / float64(span)
		}
		y[i] = float32(sum*inv) - sub
	}
}
