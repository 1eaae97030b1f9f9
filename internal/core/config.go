// Package core implements BlinkRadar's detection pipeline — the paper's
// primary contribution. The stages mirror Section IV:
//
//  1. preprocessing: loopback-filter background subtraction (the
//     paper's Fig. 7 noise-reduction cascade serves only its figure;
//     see Preprocessor);
//  2. eye range-bin identification by the 2-D I/Q variance of each bin,
//     exploiting embedded respiration/BCG interference;
//  3. viewing-position tracking by Pratt circle fitting with adaptive
//     updates and restart on large body motion;
//  4. blink detection by local extreme value detection (LEVD) on the
//     distance-from-viewing-position waveform, thresholded at five
//     times the no-blink standard deviation;
//  5. drowsy-driving classification from the blink rate (and duration)
//     over one-minute windows.
package core

import "fmt"

// Fixed pipeline constants: the paper's settings for the 25 fps default
// radio. No production caller varies them, so they are not settable.
const (
	// ColdStartFrames is the number of frames accumulated before the
	// first viewing-position fit (paper: 50 chirps x 40 ms = 2 s).
	ColdStartFrames = 50
	// FitWindowFrames is the number of recent samples used for each
	// Pratt arc fit. Longer windows cover more of the embedded-
	// interference arc and condition the fit far better; fits begin as
	// soon as ColdStartFrames samples are available.
	FitWindowFrames = 750
	// DetrendWindowFrames is the trailing moving-median window
	// subtracted from the distance waveform before extremum detection,
	// removing slow wander while preserving blink transients.
	DetrendWindowFrames = 25
	// DistanceSmoothFrames is the moving-average width applied to the
	// distance waveform before extremum detection.
	DistanceSmoothFrames = 3
	// RefractorySec is the minimum separation between two detected
	// blinks; extrema pairs inside it are merged into one event.
	RefractorySec = 0.50
	// BackgroundTauSec is the priming duration, in seconds, of the
	// loopback background filter that removes static clutter. The
	// clutter estimate is frozen after priming.
	BackgroundTauSec = 1.0
	// GuardBins excludes the first bins (antenna direct path) from bin
	// selection.
	GuardBins = 8

	// sigmaWindowSec is the span of the robust (MAD-based) estimate of
	// the no-blink standard deviation.
	sigmaWindowSec = 15
	// centerBlend in (0, 1] is the fraction of each refit's centre
	// update that is applied. Short-arc circle fits are radially
	// ill-conditioned, so jumping to each new centre would step the
	// distance waveform; blending keeps the viewing position smooth.
	centerBlend = 0.08
	// tailGuardK keeps the threshold above this multiple of the 80th
	// percentile of recent baseline deviations, suppressing periodic
	// interference whose heavy tail a MAD-based sigma underestimates.
	tailGuardK = 1.5
	// minThreshold floors the LEVD threshold so an implausibly quiet
	// sigma estimate cannot make the detector fire on noise.
	minThreshold = 0.004
	// minThresholdFrac floors the LEVD threshold at this fraction of
	// the fitted arc radius. Sub-bin body motion modulates the tracked
	// bin's amplitude in proportion to the return strength, so the
	// usable noise floor scales with the radius.
	minThresholdFrac = 0.025
	// selectWindowFrames is the number of samples over which per-bin
	// variance is computed for eye-bin identification.
	selectWindowFrames = 100
	// candidateTopK is how many highest-variance bins are scored with
	// an arc fit before picking the best.
	candidateTopK = 24
	// switchScoreRatio is the advantage a challenger bin needs over
	// the current bin before the tracker migrates to it.
	switchScoreRatio = 1.8
	// motionSustainFrames is how long the deviation of
	// Config.RestartVarRatio must persist before a restart is declared.
	motionSustainFrames = 30
	// settleFrames suppresses detection immediately after a restart
	// while the tracker re-acquires.
	settleFrames = 25
	// maxBadBinFrac is the largest fraction of non-finite bins a frame
	// may carry and still be repaired in place (bad bins patched with
	// the last good value); frames above it are rejected whole.
	maxBadBinFrac = 0.25
	// maxGapFrames is the longest input gap — a transport sequence gap
	// reported via NoteGap, or a run of rejected frames — bridged
	// without discarding tracking state. Longer gaps re-run cold start
	// (the slow-time series has a hole the filters must not paper
	// over). 50 frames = 2 s at 25 fps, matching the cold-start span.
	maxGapFrames = 50
	// degradedAfterRejects consecutive rejected frames switch the
	// health state to Degraded, signalling that the input stream itself
	// is unusable rather than momentarily glitched.
	degradedAfterRejects = 25
)

// Config holds the pipeline settings a caller may vary: the threshold
// and adaptive-update ablations, and ADC-rail repair of outside input.
// The zero value is not usable; start from DefaultConfig and override
// fields.
type Config struct {
	// ThresholdK is the LEVD threshold multiplier: a blink is declared
	// when a local max/min difference exceeds ThresholdK times the
	// no-blink standard deviation (paper: five).
	ThresholdK float64
	// RefitIntervalFrames is how often the viewing position is
	// re-fitted once tracking (paper: "updated as soon as enough
	// samples are accumulated").
	RefitIntervalFrames int
	// ReselectIntervalFrames is how often bin selection is revisited.
	ReselectIntervalFrames int
	// RestartVarRatio triggers a full restart when the distance
	// waveform stays more than RestartVarRatio times the no-blink
	// sigma away from its running median for motionSustainFrames
	// consecutive frames (paper: "restarts the whole eye-blink
	// detection process when a significant body movement happens").
	// Blinks are transient, so they never sustain the deviation.
	// Setting RefitIntervalFrames, ReselectIntervalFrames and
	// RestartVarRatio out of reach disables the paper's adaptive update,
	// the ablation of Section "Real-time Eye-Blink Detection".
	RestartVarRatio float64
	// SaturationLimit clamps each I/Q component of the input to
	// ±SaturationLimit before processing (ADC rail-out repair). Zero
	// disables clamping — the right default for the simulated radio,
	// whose output is already bounded.
	SaturationLimit float64
}

// DefaultConfig returns the paper-faithful configuration for the 25 fps
// default radio.
func DefaultConfig() Config {
	return Config{
		ThresholdK:             5,
		RefitIntervalFrames:    25,
		ReselectIntervalFrames: 125,
		RestartVarRatio:        12,
		SaturationLimit:        0,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.ThresholdK <= 0:
		return fmt.Errorf("core: threshold multiplier must be positive, got %g", c.ThresholdK)
	case c.RefitIntervalFrames <= 0:
		return fmt.Errorf("core: refit interval must be positive, got %d", c.RefitIntervalFrames)
	case c.ReselectIntervalFrames <= 0:
		return fmt.Errorf("core: reselect interval must be positive, got %d", c.ReselectIntervalFrames)
	case c.RestartVarRatio <= 1:
		return fmt.Errorf("core: restart ratio must exceed 1, got %g", c.RestartVarRatio)
	case c.SaturationLimit < 0:
		return fmt.Errorf("core: saturation limit must be non-negative (0 = off), got %g", c.SaturationLimit)
	}
	return nil
}
