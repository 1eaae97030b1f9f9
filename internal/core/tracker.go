package core

import (
	"fmt"
	"math"

	"blinkradar/internal/iq"
)

// Tracker maintains the "viewing position" of Section IV-E: the centre
// of the Pratt-fitted circle through the selected bin's recent I/Q
// samples. Each new sample is reduced to its distance from that centre,
// which cancels the phase rotation caused by respiration, BCG head
// motion and vehicle vibration (all of which move samples along the
// arc) while exposing the amplitude signature of a blink (which moves
// samples radially).
//
// Short arcs constrain the circle centre poorly in the radial
// direction, so each refit's centre is blended into the running
// estimate rather than adopted outright; this keeps the distance
// waveform free of refit steps that would masquerade as blinks.
//
// The window keeps its samples at float32 precision: every production
// sample is a widened float32 pair from the radar planes, so storing it
// as complex64 is exact, at half the bytes.
type Tracker struct {
	window    []complex64
	mom       iq.SlidingMoments
	pos       int
	count     int
	minFit    int
	refitEach int
	blend     float64
	sinceFit  int
	center    complex128
	radius    float64
	haveFit   bool
	fitCount  int
	rejects   int
}

// NewTracker creates a tracker fitting over up to windowFrames samples,
// starting once minFit samples have arrived and refitting every
// refitInterval pushes with the given centre blend factor in (0, 1].
func NewTracker(windowFrames, refitInterval, minFit int, blend float64) (*Tracker, error) {
	if windowFrames < 5 {
		return nil, fmt.Errorf("core: tracker window must be at least 5, got %d", windowFrames)
	}
	if refitInterval <= 0 {
		return nil, fmt.Errorf("core: refit interval must be positive, got %d", refitInterval)
	}
	if minFit < 5 {
		minFit = 5
	}
	if minFit > windowFrames {
		minFit = windowFrames
	}
	if blend <= 0 || blend > 1 {
		return nil, fmt.Errorf("core: blend must be in (0, 1], got %g", blend)
	}
	return &Tracker{
		window:    make([]complex64, windowFrames),
		mom:       iq.NewSlidingMoments(windowFrames),
		minFit:    minFit,
		refitEach: refitInterval,
		blend:     blend,
	}, nil
}

// store pushes one sample into the window ring and the sliding moment
// sums, evicting the overwritten sample once full and renormalizing the
// sums on the accumulator's schedule (every window-length of evictions,
// so the exact pass amortises to O(1) per frame). The sums take the
// sample as the window stores it, narrowed to float32 and widened back,
// so an eviction subtracts exactly what its push added.
//
//blinkradar:hotpath
func (t *Tracker) store(z complex128) {
	if t.count == len(t.window) {
		t.mom.Evict(complex128(t.window[t.pos]))
	} else {
		t.count++
	}
	t.window[t.pos] = complex64(z)
	t.mom.Push(complex128(t.window[t.pos]))
	t.pos++
	if t.pos == len(t.window) {
		t.pos = 0
	}
	if t.mom.NeedsRenorm() {
		// Rebuild the sums straight from the ring, oldest first: the
		// order they were pushed in, so the rounding is fixed.
		t.mom.Reset()
		t.accumulate(t.window[t.pos:t.count])
		t.accumulate(t.window[:t.pos])
	}
}

// accumulate pushes samples into the moment sums, widened.
//
//blinkradar:hotpath
func (t *Tracker) accumulate(samples []complex64) {
	for _, z := range samples {
		t.mom.Push(complex128(z))
	}
}

// Push adds one I/Q sample. Once enough samples have accumulated to
// fit, it returns the sample's distance from the viewing position and
// true; before the first fit it returns (0, false).
//
//blinkradar:hotpath
func (t *Tracker) Push(z complex128) (float64, bool) {
	t.store(z)
	t.sinceFit++
	if !t.haveFit {
		if t.count >= t.minFit {
			t.refit()
		}
	} else if t.sinceFit >= t.refitEach {
		// Keep refitting even after convergence: the fitted circle's
		// apparent centre shifts systematically as the arc segment
		// drifts with posture (the radius varies slightly along the
		// arc), so the viewing position must track the local geometry.
		// Heavy blending keeps each update small.
		t.refit()
	}
	if !t.haveFit {
		return 0, false
	}
	d := z - t.center
	// Plain sqrt, not math.Hypot: the magnitudes are O(1), so the
	// squared sum cannot overflow and Hypot's guard is pure cost.
	return math.Sqrt(real(d)*real(d) + imag(d)*imag(d)), true
}

// refit re-estimates the viewing position from the current window and
// blends it into the running estimate. The first-pass circle is solved
// in O(1) from the sliding moment sums — no pass over the samples — so
// the only O(window) work left is the trim: samples far off the
// first-pass circle (mostly blink transients, ~15% of frames) are
// rejected with a square-root-free band test, their sums accumulated
// into a moment-space complement, and the circle refitted from the
// difference of sums (FitPrattExcluding) — so blinks do not drag the
// centre, at O(window) comparisons but O(1) fit cost. A degenerate fit keeps the previous centre (the paper notes
// accuracy is poor with too few samples, so a stale-but-valid centre
// beats a bad one).
func (t *Tracker) refit() {
	c, err := t.mom.FitPratt()
	t.sinceFit = 0
	if err != nil {
		return
	}
	// Sanity gates: a short, noisy arc can yield a degenerate circle
	// whose centre sits inside the sample cloud (radius comparable to
	// the cloud spread), or a radius wildly different from the running
	// estimate. Such fits would scramble the distance waveform; skip
	// them, but give up after several consecutive rejections so a
	// genuinely changed geometry can still re-converge.
	// Gates only apply once the window is full: warm-up fits on short
	// arcs legitimately fluctuate, and burning the rejection budget on
	// them would let genuinely bad fits straight through later.
	// The gates run on the first-pass fit, before the trim, so a
	// rejected refit costs O(1) and never touches the sample window.
	if t.haveFit && t.count == len(t.window) {
		// Degenerate: the circle explains little of the cloud's
		// structure (radial residuals comparable to the raw spread).
		cloudStd := math.Sqrt(t.mom.Variance2D())
		degenerate := c.RMSE > 0.5*cloudStd
		// Jump: the radius leapt away from the running estimate, the
		// signature of a window polluted by a large transient.
		jump := c.Radius > 1.8*t.radius || c.Radius < t.radius/1.8
		if (degenerate || jump) && t.rejects < 5 {
			t.rejects++
			return
		}
	}
	t.rejects = 0
	if c.RMSE > 0 {
		// The band test compares squared distances (no square root per
		// sample); lo2 = -1 accepts everything radially inward when the
		// band floor is negative. The window ring is scanned in storage
		// order — only the set of rejected samples matters, not their
		// order — and the rejected minority is accumulated into a
		// moment-space complement, so the trimmed refit below is solved
		// from sums without revisiting the kept samples.
		lo := c.Radius - 3*c.RMSE
		hi := c.Radius + 3*c.RMSE
		lo2 := -1.0
		if lo > 0 {
			lo2 = lo * lo
		}
		hi2 := hi * hi
		var sub iq.SlidingMoments
		for _, z32 := range t.window[:t.count] {
			z := complex128(z32)
			d := z - c.Center
			r2 := real(d)*real(d) + imag(d)*imag(d)
			if r2 > lo2 && r2 < hi2 {
				continue
			}
			sub.Push(z)
		}
		if t.count-sub.Count() >= t.count/2 {
			if c2, err2 := t.mom.FitPrattExcluding(&sub); err2 == nil {
				c = c2
			}
		}
	}
	if !t.haveFit {
		t.center = c.Center
		t.radius = c.Radius
		t.haveFit = true
	} else {
		// Early fits see short, ill-conditioned arcs, so converge
		// quickly at first (blend ~ 1/fitCount) and settle to the
		// configured damping once the window has matured.
		blend := 1 / float64(t.fitCount+1)
		if blend < t.blend {
			blend = t.blend
		}
		t.center += complex(blend, 0) * (c.Center - t.center)
		t.radius += blend * (c.Radius - t.radius)
	}
	t.fitCount++
}

// Seed pre-fills the window with historical samples (e.g. the selection
// ring) so tracking can begin without re-accumulating a full window.
func (t *Tracker) Seed(history []complex128) {
	for _, z := range history {
		t.store(z)
	}
	if t.count >= t.minFit {
		t.refit()
	}
}

// matureAt is the sample count at which the viewing position is
// considered converged (the window itself may be much longer).
const matureAt = 250

// Mature reports whether enough samples have accumulated for the
// viewing position to be past its start-up transient.
func (t *Tracker) Mature() bool {
	n := matureAt
	if n > len(t.window) {
		n = len(t.window)
	}
	return t.count >= n
}

// Radius returns the current fitted radius (0 before the first fit).
func (t *Tracker) Radius() float64 { return t.radius }

// Reset clears the window and the fit for a restart on the same
// stream. The fit count survives, so a re-seeded tracker blends its
// first refits at the settled rate rather than the start-up one.
func (t *Tracker) Reset() {
	t.rejects = 0
	t.pos = 0
	t.count = 0
	t.sinceFit = 0
	t.center = 0
	t.radius = 0
	t.haveFit = false
	t.mom.Reset()
}

// ResetFull returns the tracker to its as-constructed state, fit count
// included, for recycling onto a different stream (session pooling):
// its first fits then converge as fast as a new tracker's.
func (t *Tracker) ResetFull() {
	t.Reset()
	t.fitCount = 0
}
