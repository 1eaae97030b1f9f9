package baseline

import (
	"testing"

	"blinkradar/internal/core"
	"blinkradar/internal/eval"
	"blinkradar/internal/rf"
	"blinkradar/internal/scenario"
)

func TestNaiveBinSelectPicksStrongest(t *testing.T) {
	m, err := rf.NewFrameMatrix(10, 5, 25, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.Data {
		m.Data[k][1] = 0.5
		m.Data[k][3] = 2.0 // strongest
	}
	bin, err := NaiveBinSelect(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bin != 3 {
		t.Fatalf("selected bin %d, want 3", bin)
	}
	// Guard can exclude the winner.
	bin, err = NaiveBinSelect(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bin != 4 {
		t.Fatalf("guarded selection %d, want 4", bin)
	}
	if _, err := NaiveBinSelect(m, 5); err == nil {
		t.Fatal("all-guarded selection must fail")
	}
}

func TestNaiveBinSelectLocksOntoClutter(t *testing.T) {
	// On a realistic cabin capture, the naive amplitude heuristic must
	// NOT find the face region — that is exactly the paper's argument
	// for variance-based selection.
	spec := scenario.DefaultSpec()
	spec.Duration = 20
	cap, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := NaiveBinSelect(cap.Frames, core.GuardBins)
	if err != nil {
		t.Fatal(err)
	}
	if diff := bin - cap.EyeBin; diff > -3 && diff < 3 {
		t.Fatalf("naive selection landed on the face region (bin %d, eye %d): the ablation premise is broken", bin, cap.EyeBin)
	}
}

// TestConfigValidate checks that the baselines validate the core
// configuration whose threshold multiplier they share.
func TestConfigValidate(t *testing.T) {
	m, err := rf.NewFrameMatrix(60, 20, 25, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.DefaultConfig()
	bad.ThresholdK = 0
	if _, err := DetectAmplitude(Config{}, bad, m); err == nil {
		t.Error("amplitude baseline accepted a zero threshold multiplier")
	}
	if _, err := DetectPhase(Config{UseVarianceBinSelect: true}, bad, m); err == nil {
		t.Error("phase baseline accepted a zero threshold multiplier")
	}
}

func TestAmplitudeBaselineWithVarianceSelection(t *testing.T) {
	// With the proper bin, amplitude-only detection still works to a
	// degree — it shares half the signature — but must run end to end.
	spec := scenario.DefaultSpec()
	spec.Duration = 60
	spec.Seed = 11
	cap, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := Config{UseVarianceBinSelect: true}
	events, err := DetectAmplitude(bcfg, core.DefaultConfig(), cap.Frames)
	if err != nil {
		t.Fatal(err)
	}
	truth := eval.TrimWarmup(cap.Truth, eval.DefaultWarmup)
	m := eval.Match(truth, events, 0)
	// Sanity only: it runs and detects something.
	if m.TruePositives == 0 && len(truth) > 3 {
		t.Fatalf("amplitude baseline detected nothing over %d blinks", len(truth))
	}
}

func TestBaselinesUnderperformFullPipeline(t *testing.T) {
	// The headline ablation: the naive amplitude-peak baseline must
	// lose badly to the full pipeline on the same captures.
	coreCfg := core.DefaultConfig()
	var fullSum, naiveSum float64
	const sessions = 2
	for i := 0; i < sessions; i++ {
		spec := scenario.DefaultSpec()
		spec.Duration = 90
		spec.Seed = int64(100 + i)
		cap, err := scenario.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		truth := eval.TrimWarmup(cap.Truth, eval.DefaultWarmup)
		full, _, err := core.Detect(coreCfg, cap.Frames)
		if err != nil {
			t.Fatal(err)
		}
		fullSum += eval.Match(truth, full, 0).Accuracy()
		naive, err := DetectAmplitude(Config{}, coreCfg, cap.Frames)
		if err != nil {
			t.Fatal(err)
		}
		naiveSum += eval.Match(truth, naive, 0).Accuracy()
	}
	if fullSum <= naiveSum {
		t.Fatalf("full pipeline %.2f not above naive baseline %.2f", fullSum/sessions, naiveSum/sessions)
	}
}

func TestPhaseBaselineRuns(t *testing.T) {
	spec := scenario.DefaultSpec()
	spec.Duration = 40
	spec.Seed = 12
	cap, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	bcfg := Config{UseVarianceBinSelect: true}
	if _, err := DetectPhase(bcfg, core.DefaultConfig(), cap.Frames); err != nil {
		t.Fatal(err)
	}
}
