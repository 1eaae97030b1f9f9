package core

import (
	"fmt"
	"math"
)

// WindowFeatures summarises blink behaviour over one analysis window
// (paper: one minute) for drowsiness classification.
type WindowFeatures struct {
	// BlinkRate is the blink count normalised to blinks per minute.
	BlinkRate float64
	// MeanBlinkDuration is the mean detected blink duration in
	// seconds (0 when no blinks were detected).
	MeanBlinkDuration float64
}

// RateDurationGate is the duration filter of the window features.
// Two effects stack: single-crossing interference has no reopening edge
// and lands at the duration floor, and drowsy blinks are much longer
// than vigilant ones (>400 ms versus ~200 ms, Section II-A) — so the
// long-blink rate is both a cleaner and a more discriminative
// drowsiness marker than the raw detection rate.
const RateDurationGate = 0.35

// WindowTally accumulates one window's blinks into its features. It is
// the one feature rule of the offline windows (ExtractWindows) and the
// streaming Monitor's: a detection shorter than RateDurationGate is not
// counted (a NaN duration is).
type WindowTally struct {
	count  int
	durSum float64
}

// Add counts a detected blink of the given duration unless the duration
// gate excludes it.
func (t *WindowTally) Add(duration float64) {
	if duration < RateDurationGate {
		return
	}
	t.count++
	t.durSum += duration
}

// Features returns the features of a window spanning spanSec seconds.
func (t WindowTally) Features(spanSec float64) WindowFeatures {
	f := WindowFeatures{BlinkRate: float64(t.count) / spanSec * 60}
	if t.count > 0 {
		f.MeanBlinkDuration = t.durSum / float64(t.count)
	}
	return f
}

// maxWindows caps how many windows ExtractWindows slices one capture
// into: 2^20 one-minute windows span two years, and the cap keeps a
// tiny window or a huge capture span from sizing a giant allocation.
const maxWindows = 1 << 20

// ExtractWindows slices a capture's detected blinks into consecutive
// windows of windowSec seconds and computes features for each, applying
// the duration gate (WindowTally). The final partial window is dropped,
// matching the paper's whole-window evaluation, and a capture shorter
// than one window has none. Both spans must be finite, and the capture
// may hold at most maxWindows windows. Events must be sorted by Time, as
// the detector emits them; an out-of-order slice is rejected rather than
// silently miscounted. The pass is single-sweep — O(events + windows),
// not O(events × windows) — which matters for long captures binned into
// short windows.
func ExtractWindows(events []BlinkEvent, captureSec, windowSec float64) ([]WindowFeatures, error) {
	if !(windowSec > 0) || math.IsInf(windowSec, 1) {
		return nil, fmt.Errorf("core: window must be positive and finite, got %g s", windowSec)
	}
	if math.IsNaN(captureSec) || math.IsInf(captureSec, 0) {
		return nil, fmt.Errorf("core: capture span must be finite, got %g s", captureSec)
	}
	// The count stays in float64 until it is known to fit: an
	// out-of-range float-to-int conversion is implementation-defined.
	count := math.Floor(captureSec / windowSec)
	if count > maxWindows {
		return nil, fmt.Errorf("core: a %g-s capture span holds %g windows of %g s, more than %d",
			captureSec, count, windowSec, maxWindows)
	}
	n := int(max(count, 0))
	tallies := make([]WindowTally, n)
	last := math.Inf(-1)
	for i, e := range events {
		// A NaN time has no place in the order, so it fails this too.
		if !(e.Time >= last) {
			return nil, fmt.Errorf("core: events must be sorted by time: event %d at %gs precedes %gs", i, e.Time, last)
		}
		last = e.Time
		if e.Time < 0 {
			continue
		}
		w := math.Floor(e.Time / windowSec)
		if w >= float64(n) { // final partial window (and anything past it) is dropped
			continue
		}
		tallies[int(w)].Add(e.Duration)
	}
	out := make([]WindowFeatures, n)
	for w, t := range tallies {
		out[w] = t.Features(windowSec)
	}
	return out, nil
}

// classStats holds per-class Gaussian parameters for the two features.
type classStats struct {
	rateMean, rateStd float64
	durMean, durStd   float64
	n                 int
}

// DrowsinessModel is the paper's simple per-driver drowsiness detector:
// it is calibrated from labelled awake and drowsy windows collected
// during enrolment (Section V, "Ground truth": two training sets per
// participant) and classifies each subsequent window from its blink
// rate and mean blink duration using two-feature Gaussian likelihoods.
type DrowsinessModel struct {
	awake, drowsy classStats
	trained       bool
}

// Train fits the model from labelled windows. Both classes need at
// least two windows.
func (m *DrowsinessModel) Train(awake, drowsy []WindowFeatures) error {
	if len(awake) < 2 || len(drowsy) < 2 {
		return fmt.Errorf("core: need at least 2 windows per class, got %d awake, %d drowsy", len(awake), len(drowsy))
	}
	m.awake = fitClass(awake)
	m.drowsy = fitClass(drowsy)
	// Pool the spreads (LDA-style): with only a handful of calibration
	// windows per class, per-class variances are too noisy to trust
	// and can produce degenerate boundaries.
	rate := math.Sqrt((m.awake.rateStd*m.awake.rateStd + m.drowsy.rateStd*m.drowsy.rateStd) / 2)
	dur := math.Sqrt((m.awake.durStd*m.awake.durStd + m.drowsy.durStd*m.drowsy.durStd) / 2)
	m.awake.rateStd, m.drowsy.rateStd = rate, rate
	m.awake.durStd, m.drowsy.durStd = dur, dur
	m.trained = true
	return nil
}

func fitClass(ws []WindowFeatures) classStats {
	var s classStats
	s.n = len(ws)
	for _, w := range ws {
		s.rateMean += w.BlinkRate
		s.durMean += w.MeanBlinkDuration
	}
	fn := float64(s.n)
	s.rateMean /= fn
	s.durMean /= fn
	for _, w := range ws {
		dr := w.BlinkRate - s.rateMean
		dd := w.MeanBlinkDuration - s.durMean
		s.rateStd += dr * dr
		s.durStd += dd * dd
	}
	s.rateStd = math.Sqrt(s.rateStd / fn)
	s.durStd = math.Sqrt(s.durStd / fn)
	// Floor the spreads: tiny training sets can collapse a class, and
	// the rate feature carries capture-to-capture false-positive
	// variance beyond its within-capture spread.
	if s.rateStd < 2.5 {
		s.rateStd = 2.5
	}
	if s.durStd < 0.08 {
		s.durStd = 0.08
	}
	return s
}

// Trained reports whether the model has been calibrated.
func (m *DrowsinessModel) Trained() bool { return m.trained }

// Classify returns true when the window is more likely drowsy than
// awake under the fitted Gaussians, along with the drowsy posterior
// (equal priors).
func (m *DrowsinessModel) Classify(w WindowFeatures) (drowsy bool, posterior float64, err error) {
	if !m.trained {
		return false, 0, fmt.Errorf("core: drowsiness model not trained")
	}
	if math.IsNaN(w.BlinkRate) || math.IsInf(w.BlinkRate, 0) ||
		math.IsNaN(w.MeanBlinkDuration) || math.IsInf(w.MeanBlinkDuration, 0) {
		return false, 0, fmt.Errorf("core: non-finite window features %+v", w)
	}
	la := m.awake.logLikelihood(w)
	ld := m.drowsy.logLikelihood(w)
	// Softmax over the two log-likelihoods.
	mx := math.Max(la, ld)
	pa := math.Exp(la - mx)
	pd := math.Exp(ld - mx)
	posterior = pd / (pa + pd)
	return ld > la, posterior, nil
}

// durationWeight discounts the duration feature: LEVD's per-event
// duration estimate is far noisier than the blink count, so it
// contributes but cannot overrule the rate.
const durationWeight = 1.0

// logLikelihood sums the per-feature Gaussian log-densities. The
// duration feature is ignored for windows with no detected blinks
// (MeanBlinkDuration == 0), where it carries no information.
func (s classStats) logLikelihood(w WindowFeatures) float64 {
	ll := gaussLogPDF(w.BlinkRate, s.rateMean, s.rateStd)
	if w.MeanBlinkDuration > 0 {
		ll += durationWeight * gaussLogPDF(w.MeanBlinkDuration, s.durMean, s.durStd)
	}
	return ll
}

func gaussLogPDF(x, mean, std float64) float64 {
	d := (x - mean) / std
	return -0.5*d*d - math.Log(std)
}

// Thresholds returns the fitted class means, exposed for reporting.
func (m *DrowsinessModel) Thresholds() (awakeRate, drowsyRate, awakeDur, drowsyDur float64) {
	return m.awake.rateMean, m.drowsy.rateMean, m.awake.durMean, m.drowsy.durMean
}
