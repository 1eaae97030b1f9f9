package core

import (
	"fmt"

	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// Preprocessor implements the paper's signal-preprocessing module
// (Section IV-B) as the pipeline runs it: background subtraction by a
// per-bin loopback filter (Section IV-B2), frame by frame on the
// float32 I/Q planes, so the same code serves the offline and real-time
// paths. The Fig. 7 noise-reduction cascade is not run per frame: the
// radio delivers pulse-compressed profiles, and no cascade variant
// improved accuracy (EXPERIMENTS.md, Ablations). CascadeFilter keeps
// the cascade for the Fig. 7 figure.
//
// Each bin's complex mean over a priming window is estimated once and
// subtracted from every subsequent frame. Static reflections — seats,
// steering wheel, direct path — have a time-invariant delay, so a
// frozen estimate removes them exactly; motion-modulated components
// pass untouched. The estimate is deliberately NOT tracked afterwards:
// a slowly-adapting filter chases the motion trajectory itself and
// smears the arc geometry the tracker depends on. Posture drift is the
// tracker's and restart logic's job.
type Preprocessor struct {
	primeFrames int
	seen        int
	// sum accumulates the priming frames at full precision; the frozen
	// mean is narrowed once into the float32 planes the hot subtraction
	// reads, so it never widens.
	sum     []complex128
	meanI32 []float32
	meanQ32 []float32
}

// NewPreprocessor builds a preprocessor for profiles with the given
// number of range bins at the given frame rate, priming its clutter
// estimate over BackgroundTauSec seconds of frames.
func NewPreprocessor(cfg Config, numBins int, frameRate float64) (*Preprocessor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numBins <= 0 {
		return nil, fmt.Errorf("core: bins must be positive, got %d", numBins)
	}
	if err := checkFrameRate(frameRate); err != nil {
		return nil, err
	}
	return &Preprocessor{
		primeFrames: max(int(BackgroundTauSec*frameRate), 1),
		sum:         make([]complex128, numBins),
		meanI32:     make([]float32, numBins),
		meanQ32:     make([]float32, numBins),
	}, nil
}

// ProcessPlanes background-subtracts one frame of I/Q planes in place,
// performing no allocations. During the priming window the frame is
// accumulated into the estimate (narrowed samples, full-precision
// accumulation) and the output is zeroed (the detector's cold start
// covers this period anyway). The estimate divides by the frames
// actually accumulated, so a Reset mid-prime or a capture that ends
// before the window fills never leaves a partial sum scaled as if the
// window had completed.
//
//blinkradar:hotpath
func (p *Preprocessor) ProcessPlanes(pi, pq []float32) error {
	if len(pi) != len(p.sum) || len(pq) != len(p.sum) {
		n := len(pi)
		if len(pq) != n {
			n = -1
		}
		return errFrameBins(n, len(p.sum))
	}
	if p.seen < p.primeFrames {
		p.seen++
		for i := range pi {
			p.sum[i] += complex(float64(pi[i]), float64(pq[i]))
			pi[i] = 0
			pq[i] = 0
		}
		if p.seen == p.primeFrames {
			p.freeze()
		}
		return nil
	}
	for i := range pi {
		pi[i] -= p.meanI32[i]
		pq[i] -= p.meanQ32[i]
	}
	return nil
}

// freeze finalises the clutter estimate from the priming sum into the
// float32 planes the subtraction reads.
//
//blinkradar:convert
func (p *Preprocessor) freeze() {
	inv := complex(1/float64(p.seen), 0)
	for i, s := range p.sum {
		m := s * inv
		p.meanI32[i] = float32(real(m))
		p.meanQ32[i] = float32(imag(m))
	}
}

// Reset clears the clutter estimate so the next frames re-prime it
// (used after a full restart).
func (p *Preprocessor) Reset() {
	for i := range p.sum {
		p.sum[i] = 0
		p.meanI32[i] = 0
		p.meanQ32[i] = 0
	}
	p.seen = 0
}

// PreprocessMatrix applies the full preprocessing chain to a copy of
// the matrix and returns it, leaving the input untouched. This is the
// offline path behind the figures, vital-sign estimation and the
// baselines: each frame is narrowed into planes, run through the same
// ProcessPlanes kernel as the streaming detector, and widened back.
func PreprocessMatrix(m *rf.FrameMatrix) (*rf.FrameMatrix, error) {
	p, err := NewPreprocessor(DefaultConfig(), m.NumBins(), m.FrameRate)
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
// order-26 Hamming-window low-pass FIR followed by a 50-point moving
// average — to a real-valued waveform. The paper applies it to the
// received baseband fast-time signal; here it serves only the Fig. 7
// before/after SNR comparison, since the per-frame pipeline runs
// background subtraction alone (see Preprocessor). For repeated
// application build a dsp.FusedCascade once and call its ApplyInto.
func CascadeFilter(x []float64) []float64 {
	out := make([]float64, len(x))
	// A fresh destination of x's length cannot fail the length or
	// aliasing checks, the cascade's only errors.
	_ = dsp.NewFusedCascade().ApplyInto(out, x)
	return out
}
