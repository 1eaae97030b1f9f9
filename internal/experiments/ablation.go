package experiments

import (
	"fmt"

	"blinkradar/internal/baseline"
	"blinkradar/internal/core"
	"blinkradar/internal/eval"
	"blinkradar/internal/scenario"
)

// AblationResult compares the full pipeline against a weakened variant
// or baseline.
type AblationResult struct {
	// Name identifies the ablation.
	Name string
	// Full and Variant summarise per-session accuracy for the complete
	// pipeline and the ablated one.
	Full, Variant Summary
	// Description states what was removed or replaced.
	Description string
}

// String renders the comparison.
func (r AblationResult) String() string {
	return fmt.Sprintf("%s: full median %s vs variant median %s (%s)",
		r.Name, fmtPct(r.Full.Median), fmtPct(r.Variant.Median), r.Description)
}

// ablationSubjects trades population size for speed in ablations.
const ablationSubjects = 6

// ablationAccuracies scores detect over the ablation population
// (ablationSubjects x SessionsPerSubject lab sessions), in session
// order.
func ablationAccuracies(detect func(*scenario.Capture) ([]core.BlinkEvent, error)) ([]float64, error) {
	return runOrdered(ablationSubjects*SessionsPerSubject, func(i int) (float64, error) {
		cap, err := scenario.Generate(SessionSpec(i/SessionsPerSubject+1, i%SessionsPerSubject, scenario.Lab, nil))
		if err != nil {
			return 0, err
		}
		events, err := detect(cap)
		if err != nil {
			return 0, err
		}
		return eval.Match(eval.TrimWarmup(cap.Truth, eval.DefaultWarmup), events, 0).Accuracy(), nil
	})
}

// runFull evaluates the complete pipeline over the ablation population.
func runFull(cfg core.Config) ([]float64, error) {
	return ablationAccuracies(func(cap *scenario.Capture) ([]core.BlinkEvent, error) {
		events, _, err := core.Detect(cfg, cap.Frames)
		return events, err
	})
}

// AblationBinSelection compares variance-based eye-bin identification
// against the naive amplitude-peak selection (the paper's central
// argument for exploiting embedded interference).
func AblationBinSelection(cfg core.Config) (AblationResult, error) {
	full, err := runFull(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	bcfg := baseline.Config{} // naive amplitude-peak bin
	variant, err := ablationAccuracies(func(cap *scenario.Capture) ([]core.BlinkEvent, error) {
		return baseline.DetectAmplitude(bcfg, cfg, cap.Frames)
	})
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:        "Ablation: bin selection",
		Full:        Summarize(full),
		Variant:     Summarize(variant),
		Description: "variance/arc selection replaced by strongest-amplitude bin (locks onto seat/steering wheel)",
	}, nil
}

// AblationWaveform compares the I/Q distance-from-viewing-position
// waveform against amplitude-only and phase-only detection on the
// correctly selected bin.
func AblationWaveform(cfg core.Config) (ablations []AblationResult, err error) {
	full, err := runFull(cfg)
	if err != nil {
		return nil, err
	}
	fullSummary := Summarize(full)
	bcfg := baseline.Config{UseVarianceBinSelect: true}

	amp, err := ablationAccuracies(func(cap *scenario.Capture) ([]core.BlinkEvent, error) {
		return baseline.DetectAmplitude(bcfg, cfg, cap.Frames)
	})
	if err != nil {
		return nil, err
	}
	ablations = append(ablations, AblationResult{
		Name:        "Ablation: amplitude-only waveform",
		Full:        fullSummary,
		Variant:     Summarize(amp),
		Description: "|z| thresholding on the selected bin, discarding phase",
	})

	ph, err := ablationAccuracies(func(cap *scenario.Capture) ([]core.BlinkEvent, error) {
		return baseline.DetectPhase(bcfg, cfg, cap.Frames)
	})
	if err != nil {
		return nil, err
	}
	ablations = append(ablations, AblationResult{
		Name:        "Ablation: phase-only waveform",
		Full:        fullSummary,
		Variant:     Summarize(ph),
		Description: "unwrapped-phase thresholding, exposed to all phase interference",
	})
	return ablations, nil
}

// AblationAdaptiveUpdate disables the adaptive viewing-position update
// (periodic refits, bin reselection and motion restarts).
func AblationAdaptiveUpdate(cfg core.Config) (AblationResult, error) {
	full, err := runFull(cfg)
	if err != nil {
		return AblationResult{}, err
	}
	off := cfg
	off.RefitIntervalFrames = 1 << 30
	off.ReselectIntervalFrames = 1 << 30
	off.RestartVarRatio = 1e12
	variant, err := runFull(off)
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{
		Name:        "Ablation: adaptive update",
		Full:        Summarize(full),
		Variant:     Summarize(variant),
		Description: "viewing position frozen after the first fit; no reselection or restart",
	}, nil
}

// AblationThreshold sweeps the LEVD multiplier around the paper's five
// sigma.
func AblationThreshold(cfg core.Config) ([]AblationResult, error) {
	full, err := runFull(cfg)
	if err != nil {
		return nil, err
	}
	fullSummary := Summarize(full)
	var out []AblationResult
	for _, k := range []float64{2.5, 10} {
		kcfg := cfg
		kcfg.ThresholdK = k
		variant, err := runFull(kcfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AblationResult{
			Name:        fmt.Sprintf("Ablation: threshold K=%.1f", k),
			Full:        fullSummary,
			Variant:     Summarize(variant),
			Description: "LEVD multiplier moved off the paper's 5x no-blink sigma",
		})
	}
	return out, nil
}
