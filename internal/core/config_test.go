package core

import "testing"

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"cold start", func(c *Config) { c.ColdStartFrames = 1 }},
		{"fit window", func(c *Config) { c.FitWindowFrames = 2 }},
		{"refit interval", func(c *Config) { c.RefitIntervalFrames = 0 }},
		{"centre blend", func(c *Config) { c.CenterBlend = 0 }},
		{"centre blend high", func(c *Config) { c.CenterBlend = 1.5 }},
		{"detrend", func(c *Config) { c.DetrendWindowFrames = 1 }},
		{"threshold", func(c *Config) { c.ThresholdK = 0 }},
		{"tail guard", func(c *Config) { c.TailGuardK = -1 }},
		{"sigma window", func(c *Config) { c.SigmaWindowSec = 0 }},
		{"min threshold", func(c *Config) { c.MinThreshold = -1 }},
		{"threshold frac", func(c *Config) { c.MinThresholdFrac = 1 }},
		{"refractory", func(c *Config) { c.RefractorySec = -1 }},
		{"distance smooth", func(c *Config) { c.DistanceSmoothFrames = 0 }},
		{"background tau", func(c *Config) { c.BackgroundTauSec = 0 }},
		{"guard bins", func(c *Config) { c.GuardBins = -1 }},
		{"select window", func(c *Config) { c.SelectWindowFrames = 5 }},
		{"candidates", func(c *Config) { c.CandidateTopK = 0 }},
		{"reselect", func(c *Config) { c.ReselectIntervalFrames = 0 }},
		{"switch ratio", func(c *Config) { c.SwitchScoreRatio = 0.5 }},
		{"restart ratio", func(c *Config) { c.RestartVarRatio = 1 }},
		{"motion sustain", func(c *Config) { c.MotionSustainFrames = 0 }},
		{"settle", func(c *Config) { c.SettleFrames = -1 }},
		{"saturation", func(c *Config) { c.SaturationLimit = -1 }},
		{"bad-bin frac", func(c *Config) { c.MaxBadBinFrac = -0.1 }},
		{"bad-bin frac high", func(c *Config) { c.MaxBadBinFrac = 1.1 }},
		{"max gap", func(c *Config) { c.MaxGapFrames = 0 }},
		{"degraded", func(c *Config) { c.DegradedAfterRejects = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

func TestOptions(t *testing.T) {
	cfg := DefaultConfig()
	WithThresholdK(7)(&cfg)
	if cfg.ThresholdK != 7 {
		t.Fatal("WithThresholdK did not apply")
	}
	WithAdaptiveUpdate(false)(&cfg)
	if cfg.ReselectIntervalFrames < 1<<29 {
		t.Fatal("WithAdaptiveUpdate(false) should push reselects out")
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("adaptive-off config invalid: %v", err)
	}
}
