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

// Config parameterises the detection pipeline. The zero value is not
// usable; start from DefaultConfig and override fields or use the
// functional options accepted by NewDetector.
type Config struct {
	// ColdStartFrames is the number of frames accumulated before the
	// first viewing-position fit (paper: 50 chirps x 40 ms = 2 s).
	ColdStartFrames int
	// FitWindowFrames is the number of recent samples used for each
	// Pratt arc fit. Longer windows cover more of the embedded-
	// interference arc and condition the fit far better; fits begin as
	// soon as ColdStartFrames samples are available.
	FitWindowFrames int
	// RefitIntervalFrames is how often the viewing position is
	// re-fitted once tracking (paper: "updated as soon as enough
	// samples are accumulated").
	RefitIntervalFrames int
	// DetrendWindowFrames is the trailing moving-median window
	// subtracted from the distance waveform before extremum detection,
	// removing slow wander while preserving blink transients.
	DetrendWindowFrames int
	// SigmaWindowSec is the span of the robust (MAD-based) estimate of
	// the no-blink standard deviation.
	SigmaWindowSec float64
	// CenterBlend in (0, 1] is the fraction of each refit's centre
	// update that is applied. Short-arc circle fits are radially
	// ill-conditioned, so jumping to each new centre would step the
	// distance waveform; blending keeps the viewing position smooth.
	CenterBlend float64
	// ThresholdK is the LEVD threshold multiplier: a blink is declared
	// when a local max/min difference exceeds ThresholdK times the
	// no-blink standard deviation (paper: five).
	ThresholdK float64
	// TailGuardK keeps the threshold above this multiple of the 80th
	// percentile of recent baseline deviations, suppressing periodic
	// interference whose heavy tail a MAD-based sigma underestimates.
	TailGuardK float64
	// MinThreshold floors the LEVD threshold so an implausibly quiet
	// sigma estimate cannot make the detector fire on noise.
	MinThreshold float64
	// MinThresholdFrac floors the LEVD threshold at this fraction of
	// the fitted arc radius. Sub-bin body motion modulates the tracked
	// bin's amplitude in proportion to the return strength, so the
	// usable noise floor scales with the radius.
	MinThresholdFrac float64
	// RefractorySec is the minimum separation between two detected
	// blinks; extrema pairs inside it are merged into one event.
	RefractorySec float64
	// DistanceSmoothFrames is the moving-average width applied to the
	// distance waveform before extremum detection.
	DistanceSmoothFrames int
	// BackgroundTauSec is the priming duration, in seconds, of the
	// loopback background filter that removes static clutter. The
	// clutter estimate is frozen after priming.
	BackgroundTauSec float64
	// GuardBins excludes the first bins (antenna direct path) from bin
	// selection.
	GuardBins int
	// SelectWindowFrames is the number of samples over which per-bin
	// variance is computed for eye-bin identification.
	SelectWindowFrames int
	// CandidateTopK is how many highest-variance bins are scored with
	// an arc fit before picking the best.
	CandidateTopK int
	// ReselectIntervalFrames is how often bin selection is revisited.
	ReselectIntervalFrames int
	// SwitchScoreRatio is the advantage a challenger bin needs over
	// the current bin before the tracker migrates to it.
	SwitchScoreRatio float64
	// RestartVarRatio triggers a full restart when the distance
	// waveform stays more than RestartVarRatio times the no-blink
	// sigma away from its running median for MotionSustainFrames
	// consecutive frames (paper: "restarts the whole eye-blink
	// detection process when a significant body movement happens").
	// Blinks are transient, so they never sustain the deviation.
	RestartVarRatio float64
	// MotionSustainFrames is how long the deviation must persist
	// before a restart is declared.
	MotionSustainFrames int
	// SettleFrames suppresses detection immediately after a restart
	// while the tracker re-acquires.
	SettleFrames int
	// SaturationLimit clamps each I/Q component of the input to
	// ±SaturationLimit before processing (ADC rail-out repair). Zero
	// disables clamping — the right default for the simulated radio,
	// whose output is already bounded.
	SaturationLimit float64
	// MaxBadBinFrac is the largest fraction of non-finite bins a frame
	// may carry and still be repaired in place (bad bins patched with
	// the last good value); frames above it are rejected whole.
	MaxBadBinFrac float64
	// MaxGapFrames is the longest input gap — a transport sequence gap
	// reported via NoteGap, or a run of rejected frames — bridged
	// without discarding tracking state. Longer gaps re-run cold start
	// (the slow-time series has a hole the filters must not paper
	// over). Default 50 frames = 2 s at 25 fps, matching the cold-start
	// span.
	MaxGapFrames int
	// DegradedAfterRejects consecutive rejected frames switch the
	// health state to Degraded, signalling that the input stream itself
	// is unusable rather than momentarily glitched.
	DegradedAfterRejects int
}

// DefaultConfig returns the paper-faithful configuration for the 25 fps
// default radio.
func DefaultConfig() Config {
	return Config{
		ColdStartFrames:        50,
		FitWindowFrames:        750,
		RefitIntervalFrames:    25,
		CenterBlend:            0.08,
		DetrendWindowFrames:    25,
		SigmaWindowSec:         15,
		ThresholdK:             5,
		TailGuardK:             1.5,
		MinThreshold:           0.004,
		MinThresholdFrac:       0.025,
		RefractorySec:          0.50,
		DistanceSmoothFrames:   3,
		BackgroundTauSec:       1.0,
		GuardBins:              8,
		SelectWindowFrames:     100,
		CandidateTopK:          24,
		ReselectIntervalFrames: 125,
		SwitchScoreRatio:       1.8,
		RestartVarRatio:        12,
		MotionSustainFrames:    30,
		SettleFrames:           25,
		SaturationLimit:        0,
		MaxBadBinFrac:          0.25,
		MaxGapFrames:           50,
		DegradedAfterRejects:   25,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.ColdStartFrames <= 2:
		return fmt.Errorf("core: cold start must exceed 2 frames, got %d", c.ColdStartFrames)
	case c.FitWindowFrames < 5:
		return fmt.Errorf("core: fit window must be at least 5 frames, got %d", c.FitWindowFrames)
	case c.RefitIntervalFrames <= 0:
		return fmt.Errorf("core: refit interval must be positive, got %d", c.RefitIntervalFrames)
	case c.CenterBlend <= 0 || c.CenterBlend > 1:
		return fmt.Errorf("core: centre blend must be in (0, 1], got %g", c.CenterBlend)
	case c.DetrendWindowFrames <= 2:
		return fmt.Errorf("core: detrend window must exceed 2 frames, got %d", c.DetrendWindowFrames)
	case c.SigmaWindowSec <= 0:
		return fmt.Errorf("core: sigma window must be positive, got %g", c.SigmaWindowSec)
	case c.ThresholdK <= 0:
		return fmt.Errorf("core: threshold multiplier must be positive, got %g", c.ThresholdK)
	case c.TailGuardK < 0:
		return fmt.Errorf("core: tail guard must be non-negative, got %g", c.TailGuardK)
	case c.MinThreshold < 0:
		return fmt.Errorf("core: minimum threshold must be non-negative, got %g", c.MinThreshold)
	case c.MinThresholdFrac < 0 || c.MinThresholdFrac >= 1:
		return fmt.Errorf("core: threshold fraction must be in [0, 1), got %g", c.MinThresholdFrac)
	case c.RefractorySec < 0:
		return fmt.Errorf("core: refractory period must be non-negative, got %g", c.RefractorySec)
	case c.DistanceSmoothFrames <= 0:
		return fmt.Errorf("core: distance smoothing must be positive, got %d", c.DistanceSmoothFrames)
	case c.BackgroundTauSec <= 0:
		return fmt.Errorf("core: background time constant must be positive, got %g", c.BackgroundTauSec)
	case c.GuardBins < 0:
		return fmt.Errorf("core: guard bins must be non-negative, got %d", c.GuardBins)
	case c.SelectWindowFrames < 10:
		return fmt.Errorf("core: selection window must be at least 10 frames, got %d", c.SelectWindowFrames)
	case c.CandidateTopK <= 0:
		return fmt.Errorf("core: candidate count must be positive, got %d", c.CandidateTopK)
	case c.ReselectIntervalFrames <= 0:
		return fmt.Errorf("core: reselect interval must be positive, got %d", c.ReselectIntervalFrames)
	case c.SwitchScoreRatio < 1:
		return fmt.Errorf("core: switch ratio must be at least 1, got %g", c.SwitchScoreRatio)
	case c.RestartVarRatio <= 1:
		return fmt.Errorf("core: restart ratio must exceed 1, got %g", c.RestartVarRatio)
	case c.MotionSustainFrames <= 0:
		return fmt.Errorf("core: motion sustain must be positive, got %d", c.MotionSustainFrames)
	case c.SettleFrames < 0:
		return fmt.Errorf("core: settle frames must be non-negative, got %d", c.SettleFrames)
	case c.SaturationLimit < 0:
		return fmt.Errorf("core: saturation limit must be non-negative (0 = off), got %g", c.SaturationLimit)
	case c.MaxBadBinFrac < 0 || c.MaxBadBinFrac > 1:
		return fmt.Errorf("core: bad-bin fraction must be in [0, 1], got %g", c.MaxBadBinFrac)
	case c.MaxGapFrames <= 0:
		return fmt.Errorf("core: max gap must be positive, got %d", c.MaxGapFrames)
	case c.DegradedAfterRejects <= 0:
		return fmt.Errorf("core: degraded threshold must be positive, got %d", c.DegradedAfterRejects)
	}
	return nil
}

// Option mutates a Config; used by NewDetector.
type Option func(*Config)

// WithThresholdK overrides the LEVD threshold multiplier.
func WithThresholdK(k float64) Option {
	return func(c *Config) { c.ThresholdK = k }
}

// WithAdaptiveUpdate enables or disables periodic viewing-position
// refits and bin reselection (the paper's adaptive update; disabling it
// is the ablation of Section "Real-time Eye-Blink Detection").
func WithAdaptiveUpdate(enabled bool) Option {
	return func(c *Config) {
		if !enabled {
			c.RefitIntervalFrames = 1 << 30
			c.ReselectIntervalFrames = 1 << 30
			c.RestartVarRatio = 1e12
		}
	}
}
