package core

import (
	"fmt"

	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// Preprocessor implements the paper's signal-preprocessing module
// (Section IV-B): noise reduction by a cascading filter and background
// subtraction by a loopback filter. It operates frame by frame on the
// float32 I/Q planes, so the same code serves the offline and
// real-time paths.
type Preprocessor struct {
	background *BackgroundSubtractor
	// fused32 covers FIR+smoothing in one pass when the fast-time FIR
	// is enabled; ma32 covers smoothing-only. Both nil means denoise is
	// a no-op on this profile.
	fused32      *dsp.FusedCascade
	ma32         *dsp.InPlaceMA32
	planeScratch []float32
}

// NewPreprocessor builds a preprocessor for profiles with the given
// number of range bins at the given frame rate.
func NewPreprocessor(cfg Config, numBins int, frameRate float64) (*Preprocessor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numBins <= 0 || frameRate <= 0 {
		return nil, fmt.Errorf("core: bins and frame rate must be positive, got %d, %g", numBins, frameRate)
	}
	bg, err := NewBackgroundSubtractor(numBins, frameRate, cfg.BackgroundTauSec)
	if err != nil {
		return nil, err
	}
	// The noise-reduction cascade: a Hamming-window low-pass FIR
	// (paper: order 26) followed by a smoothing filter, both along the
	// fast-time (range) axis of each frame, fused into one pass per
	// plane (window 1 degenerates to the FIR alone). The FIR is only
	// applied when the profile is long enough for the design to make
	// sense.
	var fused32 *dsp.FusedCascade
	var ma32 *dsp.InPlaceMA32
	smooth := cfg.FastTimeSmoothBins
	if smooth < 1 {
		smooth = 1
	}
	if cfg.EnableFastTimeFIR && numBins > 2*cfg.FIROrder {
		fused32, err = dsp.NewFusedCascade(cfg.FIROrder, cfg.FIRCutoff, smooth)
		if err != nil {
			return nil, err
		}
	} else if smooth > 1 {
		ma32, err = dsp.NewInPlaceMA32(smooth)
		if err != nil {
			return nil, err
		}
	}
	return &Preprocessor{
		background:   bg,
		fused32:      fused32,
		ma32:         ma32,
		planeScratch: make([]float32, numBins),
	}, nil
}

// ProcessPlanes denoises and background-subtracts one frame of I/Q
// planes in place. Each plane runs the fused Fig. 7 cascade (or the
// stand-alone smoother) as a plain real-valued pass, and every
// intermediate buffer is owned by the preprocessor, so the per-frame
// hot path performs no allocations.
//
//blinkradar:hotpath
func (p *Preprocessor) ProcessPlanes(pi, pq []float32) error {
	if len(pi) != len(p.planeScratch) || len(pq) != len(p.planeScratch) {
		n := len(pi)
		if len(pq) != n {
			n = -1
		}
		return errFrameBins(n, len(p.planeScratch))
	}
	p.denoisePlanes(pi, pq)
	p.background.ApplyPlanes(pi, pq)
	return nil
}

// denoisePlanes runs the noise-reduction cascade on both planes in
// place. The fused kernel cannot run aliased (its FIR stage writes
// output while later samples still read the input), so each plane
// detours through the reusable plane scratch.
//
//blinkradar:hotpath
func (p *Preprocessor) denoisePlanes(pi, pq []float32) {
	switch {
	case p.fused32 != nil:
		copy(p.planeScratch, pi)
		p.fused32.ApplyInto32(pi, p.planeScratch[:len(pi)]) // lengths match by construction
		copy(p.planeScratch, pq)
		p.fused32.ApplyInto32(pq, p.planeScratch[:len(pq)])
	case p.ma32 != nil:
		p.ma32.Apply(pi)
		p.ma32.Apply(pq)
	}
}

// Reset clears the background estimate (used after a full restart).
func (p *Preprocessor) Reset() { p.background.Reset() }

// BackgroundSubtractor removes static clutter with a per-bin loopback
// filter (Section IV-B2): each bin's complex mean over a priming window
// is estimated once and subtracted from every subsequent frame.
// Static reflections — seats, steering wheel, direct path — have a
// time-invariant delay, so a frozen estimate removes them exactly;
// motion-modulated components pass untouched. The estimate is
// deliberately NOT tracked afterwards: a slowly-adapting filter chases
// the motion trajectory itself and smears the arc geometry the tracker
// depends on. Posture drift is the tracker's and restart logic's job.
type BackgroundSubtractor struct {
	primeFrames int
	seen        int
	// sum accumulates the priming frames at full precision; the frozen
	// mean is narrowed once into the float32 planes the hot subtraction
	// reads, so it never widens.
	sum     []complex128
	meanI32 []float32
	meanQ32 []float32
}

// NewBackgroundSubtractor creates a subtractor for numBins bins priming
// over tauSec seconds of frames.
func NewBackgroundSubtractor(numBins int, frameRate, tauSec float64) (*BackgroundSubtractor, error) {
	if numBins <= 0 {
		return nil, fmt.Errorf("core: numBins must be positive, got %d", numBins)
	}
	if frameRate <= 0 || tauSec <= 0 {
		return nil, fmt.Errorf("core: frame rate and tau must be positive, got %g, %g", frameRate, tauSec)
	}
	prime := int(tauSec * frameRate)
	if prime < 1 {
		prime = 1
	}
	return &BackgroundSubtractor{
		primeFrames: prime,
		sum:         make([]complex128, numBins),
		meanI32:     make([]float32, numBins),
		meanQ32:     make([]float32, numBins),
	}, nil
}

// ApplyPlanes subtracts the background estimate from one frame of I/Q
// planes in place. During the priming window the frame is accumulated
// into the estimate (narrowed samples, full-precision accumulation) and
// the output is zeroed (the detector's cold start covers this period
// anyway). The estimate divides by the frames actually accumulated, so
// a Reset mid-prime or a capture that ends before the window fills
// never leaves a partial sum scaled as if the window had completed.
//
//blinkradar:hotpath
func (b *BackgroundSubtractor) ApplyPlanes(pi, pq []float32) {
	if b.seen < b.primeFrames {
		b.seen++
		for i := range pi {
			b.sum[i] += complex(float64(pi[i]), float64(pq[i]))
			pi[i] = 0
			pq[i] = 0
		}
		if b.seen == b.primeFrames {
			b.freeze()
		}
		return
	}
	for i := range pi {
		pi[i] -= b.meanI32[i]
		pq[i] -= b.meanQ32[i]
	}
}

// freeze finalises the clutter estimate from the priming sum into the
// float32 planes the subtraction reads.
//
//blinkradar:convert
func (b *BackgroundSubtractor) freeze() {
	inv := complex(1/float64(b.seen), 0)
	for i, s := range b.sum {
		m := s * inv
		b.meanI32[i] = float32(real(m))
		b.meanQ32[i] = float32(imag(m))
	}
}

// Primed reports whether the priming window has completed and the
// clutter estimate is frozen.
func (b *BackgroundSubtractor) Primed() bool { return b.seen >= b.primeFrames }

// Background returns a copy of the current clutter estimate at full
// precision: the mean of the frames accumulated so far (zeros when
// none). Before the priming window completes that is the mean of the
// frames seen, not the partial sum a full window would produce.
func (b *BackgroundSubtractor) Background() []complex128 {
	out := make([]complex128, len(b.sum))
	if b.seen == 0 {
		return out
	}
	inv := complex(1/float64(b.seen), 0)
	for i, s := range b.sum {
		out[i] = s * inv
	}
	return out
}

// Reset clears the clutter estimate so the next frames re-prime it.
func (b *BackgroundSubtractor) Reset() {
	for i := range b.sum {
		b.sum[i] = 0
		b.meanI32[i] = 0
		b.meanQ32[i] = 0
	}
	b.seen = 0
}

// PreprocessMatrix applies the full preprocessing chain to a copy of
// the matrix and returns it, leaving the input untouched. This is the
// offline path behind the figures, vital-sign estimation and the
// baselines: each frame is narrowed into planes, run through the same
// ProcessPlanes kernel as the streaming detector, and widened back.
func PreprocessMatrix(cfg Config, m *rf.FrameMatrix) (*rf.FrameMatrix, error) {
	p, err := NewPreprocessor(cfg, m.NumBins(), m.FrameRate)
	if err != nil {
		return nil, err
	}
	out := m.Clone()
	planes := iq.MakePlanes32(m.NumBins())
	for _, frame := range out.Data {
		planes.FromComplex(frame)
		if err := p.ProcessPlanes(planes.I, planes.Q); err != nil {
			return nil, err
		}
		planes.ToComplex(frame)
	}
	return out, nil
}

// CascadeFilter applies the paper's Fig. 7 noise-reduction cascade — an
// order-`order` Hamming-window low-pass FIR followed by a `smooth`-point
// moving average — to a real-valued waveform. The paper applies it to
// the received baseband fast-time signal; experiments use it to
// regenerate the before/after SNR comparison. For repeated application
// build a dsp.FusedCascade once and call its ApplyInto.
func CascadeFilter(x []float64, order int, cutoff float64, smooth int) ([]float64, error) {
	c, err := dsp.NewFusedCascade(order, cutoff, smooth)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(x))
	if err := c.ApplyInto(out, x); err != nil {
		return nil, err
	}
	return out, nil
}
