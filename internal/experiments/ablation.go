package experiments

import (
	"fmt"
	"strings"

	"blinkradar/internal/baseline"
	"blinkradar/internal/core"
	"blinkradar/internal/rf"
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

// AblationResults renders several comparisons, one per line.
type AblationResults []AblationResult

// String renders each comparison on its own line.
func (rs AblationResults) String() string {
	lines := make([]string, len(rs))
	for i, r := range rs {
		lines[i] = r.String()
	}
	return strings.Join(lines, "\n")
}

// ablationSubjects trades population size for speed in ablations.
const ablationSubjects = 6

// pipelineAccuracies scores the pipeline under cfg over the ablation
// population (ablationSubjects x SessionsPerSubject lab sessions), in
// session order.
func (c *sessionCache) pipelineAccuracies(cfg core.Config) ([]float64, error) {
	sessions, err := c.population(cfg, ablationSubjects, scenario.Lab, nil)
	if err != nil {
		return nil, err
	}
	return Accuracies(sessions), nil
}

// baselineAccuracies scores a baseline detector over the ablation
// population, in session order.
func baselineAccuracies(detect func(*rf.FrameMatrix) ([]core.BlinkEvent, error)) ([]float64, error) {
	return runOrdered(ablationSubjects*SessionsPerSubject, func(i int) (float64, error) {
		s, err := evaluate(SessionSpec(i/SessionsPerSubject+1, i%SessionsPerSubject, scenario.Lab, nil), detect)
		return s.Accuracy(), err
	})
}

// ablationBinSelection compares variance-based eye-bin identification
// against the naive amplitude-peak selection (the paper's central
// argument for exploiting embedded interference).
func (c *sessionCache) ablationBinSelection() (AblationResult, error) {
	full, err := c.pipelineAccuracies(core.DefaultConfig())
	if err != nil {
		return AblationResult{}, err
	}
	variant, err := baselineAccuracies(func(m *rf.FrameMatrix) ([]core.BlinkEvent, error) {
		return baseline.DetectAmplitude(baseline.Config{}, core.DefaultConfig(), m) // naive amplitude-peak bin
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

// ablationWaveform compares the I/Q distance-from-viewing-position
// waveform against amplitude-only and phase-only detection on the
// correctly selected bin.
func (c *sessionCache) ablationWaveform() (AblationResults, error) {
	full, err := c.pipelineAccuracies(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fullSummary := Summarize(full)
	bcfg := baseline.Config{UseVarianceBinSelect: true}

	amp, err := baselineAccuracies(func(m *rf.FrameMatrix) ([]core.BlinkEvent, error) {
		return baseline.DetectAmplitude(bcfg, core.DefaultConfig(), m)
	})
	if err != nil {
		return nil, err
	}
	ph, err := baselineAccuracies(func(m *rf.FrameMatrix) ([]core.BlinkEvent, error) {
		return baseline.DetectPhase(bcfg, core.DefaultConfig(), m)
	})
	if err != nil {
		return nil, err
	}
	return AblationResults{{
		Name:        "Ablation: amplitude-only waveform",
		Full:        fullSummary,
		Variant:     Summarize(amp),
		Description: "|z| thresholding on the selected bin, discarding phase",
	}, {
		Name:        "Ablation: phase-only waveform",
		Full:        fullSummary,
		Variant:     Summarize(ph),
		Description: "unwrapped-phase thresholding, exposed to all phase interference",
	}}, nil
}

// ablationAdaptiveUpdate disables the adaptive viewing-position update
// (periodic refits, bin reselection and motion restarts).
func (c *sessionCache) ablationAdaptiveUpdate() (AblationResult, error) {
	full, err := c.pipelineAccuracies(core.DefaultConfig())
	if err != nil {
		return AblationResult{}, err
	}
	off := core.DefaultConfig()
	off.RefitIntervalFrames = 1 << 30
	off.ReselectIntervalFrames = 1 << 30
	off.RestartVarRatio = 1e12
	variant, err := c.pipelineAccuracies(off)
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

// ablationThreshold sweeps the LEVD multiplier around the paper's five
// sigma.
func (c *sessionCache) ablationThreshold() (AblationResults, error) {
	full, err := c.pipelineAccuracies(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	fullSummary := Summarize(full)
	var out AblationResults
	for _, k := range []float64{2.5, 10} {
		kcfg := core.DefaultConfig()
		kcfg.ThresholdK = k
		variant, err := c.pipelineAccuracies(kcfg)
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
