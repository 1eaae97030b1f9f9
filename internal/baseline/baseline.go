// Package baseline implements the comparison detectors that BlinkRadar's
// design choices are evaluated against:
//
//   - NaiveBinSelect: picks the range bin with the strongest mean
//     amplitude — the "naive approach" the paper rejects because the
//     eye's return is weaker than seats and steering wheel.
//   - AmplitudeDetector: thresholds the 1-D amplitude waveform of a bin
//     instead of the I/Q distance-from-viewing-position waveform.
//   - PhaseDetector: thresholds the unwrapped phase waveform, losing the
//     amplitude half of the blink signature.
//
// All baselines share the paper's preprocessing so differences isolate
// the contribution under study.
package baseline

import (
	"fmt"
	"math"

	"blinkradar/internal/core"
	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// NaiveBinSelect returns the non-guard bin with the highest time-mean
// power: the amplitude-peak heuristic for locating the eye. In a cabin
// this usually locks onto the seat back or steering wheel (Fig. 6b).
func NaiveBinSelect(m *rf.FrameMatrix, guard int) (int, error) {
	if m.NumBins() <= guard {
		return 0, fmt.Errorf("baseline: no bins beyond guard %d", guard)
	}
	power := m.MeanPowerPerBin()
	best := guard
	for b := guard + 1; b < len(power); b++ {
		if power[b] > power[best] {
			best = b
		}
	}
	return best, nil
}

// Config selects the waveform baselines' range bin. The detection rule
// is the main pipeline's: the core configuration's K-times-robust-sigma
// threshold with core's smoothing, detrend and refractory constants, so
// the comparison is about the waveform, not the rule.
type Config struct {
	// UseVarianceBinSelect selects the bin with BlinkRadar's variance
	// method instead of the naive amplitude peak.
	UseVarianceBinSelect bool
}

// selectBin picks the analysis bin per the configuration.
func selectBin(cfg Config, pre *rf.FrameMatrix) (int, error) {
	if cfg.UseVarianceBinSelect {
		return core.SelectBinMatrix(pre)
	}
	return NaiveBinSelect(pre, core.GuardBins)
}

// detectOnWaveform runs the shared extremum-threshold rule, at
// thresholdK times the robust sigma, on a scalar waveform sampled at
// fps and returns detected events.
func detectOnWaveform(thresholdK float64, w []float64, fps float64, bin int) ([]core.BlinkEvent, error) {
	smoothed, err := dsp.MovingAverage(w, core.DistanceSmoothFrames)
	if err != nil {
		return nil, err
	}
	// Trailing-median detrend, offline form.
	resid := make([]float64, len(smoothed))
	for i := range smoothed {
		lo := max(i-core.DetrendWindowFrames, 0)
		resid[i] = smoothed[i] - dsp.Median(smoothed[lo:i+1])
	}
	sigma := 1.4826 * dsp.MAD(resid)
	if sigma == 0 {
		return nil, nil
	}
	thr := thresholdK * sigma
	ext := dsp.LocalExtrema(resid)
	var events []core.BlinkEvent
	last := math.Inf(-1)
	for i := 1; i < len(ext); i++ {
		diff := math.Abs(ext[i].Value - ext[i-1].Value)
		if diff <= thr {
			continue
		}
		t := float64(ext[i-1].Index) / fps
		if t-last < core.RefractorySec {
			if t > last {
				last = t
			}
			continue
		}
		last = t
		span := float64(ext[i].Index-ext[i-1].Index) / fps
		dur := span * 3
		if dur < 0.075 {
			dur = 0.075
		}
		if dur > 1.5 {
			dur = 1.5
		}
		events = append(events, core.BlinkEvent{Time: t, Duration: dur, Amplitude: diff, Bin: bin})
	}
	return events, nil
}

// DetectAmplitude runs the amplitude-only baseline over a capture: the
// bin's |z| waveform replaces the distance-from-viewing-position
// waveform, so phase information is discarded.
func DetectAmplitude(cfg Config, coreCfg core.Config, m *rf.FrameMatrix) ([]core.BlinkEvent, error) {
	pre, bin, err := prepare(cfg, coreCfg, m)
	if err != nil {
		return nil, err
	}
	amp := iq.Amplitudes(pre.SlowTime(bin))
	return detectOnWaveform(coreCfg.ThresholdK, amp, m.FrameRate, bin)
}

// DetectPhase runs the phase-only baseline over a capture: the bin's
// unwrapped phase waveform is thresholded, discarding the amplitude
// half of the blink signature and leaving the detector exposed to every
// phase-modulating interference (respiration, BCG, vibration).
func DetectPhase(cfg Config, coreCfg core.Config, m *rf.FrameMatrix) ([]core.BlinkEvent, error) {
	pre, bin, err := prepare(cfg, coreCfg, m)
	if err != nil {
		return nil, err
	}
	ph := iq.UnwrapPhases(pre.SlowTime(bin))
	return detectOnWaveform(coreCfg.ThresholdK, ph, m.FrameRate, bin)
}

// prepare validates the core configuration, preprocesses a copy of the
// capture and picks the analysis bin.
func prepare(cfg Config, coreCfg core.Config, m *rf.FrameMatrix) (*rf.FrameMatrix, int, error) {
	if err := coreCfg.Validate(); err != nil {
		return nil, 0, err
	}
	pre, err := core.PreprocessMatrix(m)
	if err != nil {
		return nil, 0, err
	}
	bin, err := selectBin(cfg, pre)
	return pre, bin, err
}
