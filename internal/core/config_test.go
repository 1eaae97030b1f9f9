package core

import "testing"

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejections(t *testing.T) {
	validate := func(mutate func(*Config)) func() error {
		return func() error {
			cfg := DefaultConfig()
			mutate(&cfg)
			return cfg.Validate()
		}
	}
	// The tracker's fit window and centre blend are fixed constants, not
	// Config fields; the tracker the detector builds from them still
	// refuses the values Validate used to.
	tracker := func(window int, blend float64) func() error {
		return func() error {
			_, err := NewTracker(window, DefaultConfig().RefitIntervalFrames, ColdStartFrames, blend)
			return err
		}
	}
	cases := []struct {
		name  string
		apply func() error
	}{
		{"fit window", tracker(2, centerBlend)},
		{"refit interval", validate(func(c *Config) { c.RefitIntervalFrames = 0 })},
		{"centre blend", tracker(FitWindowFrames, 0)},
		{"centre blend high", tracker(FitWindowFrames, 1.5)},
		{"threshold", validate(func(c *Config) { c.ThresholdK = 0 })},
		{"reselect", validate(func(c *Config) { c.ReselectIntervalFrames = 0 })},
		{"restart ratio", validate(func(c *Config) { c.RestartVarRatio = 1 })},
		{"saturation", validate(func(c *Config) { c.SaturationLimit = -1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.apply(); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestOptions checks the two ablations' settings, which callers apply
// as field overrides on their own copy of DefaultConfig: each one
// validates and reaches the stage it controls.
func TestOptions(t *testing.T) {
	m, _ := syntheticCapture(t, 600, nil, 7)
	run := func(cfg Config) *Detector {
		t.Helper()
		det, err := NewDetector(cfg, m.NumBins(), m.FrameRate)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range m.Data {
			if _, _, err := det.Feed(row); err != nil {
				t.Fatal(err)
			}
		}
		return det
	}

	threshold := DefaultConfig()
	threshold.ThresholdK = 7
	if k := run(threshold).levd.k; k != 7 {
		t.Fatalf("LEVD multiplier %g, want the overridden 7", k)
	}

	off := DefaultConfig()
	off.RefitIntervalFrames = 1 << 30
	off.ReselectIntervalFrames = 1 << 30
	off.RestartVarRatio = 1e12
	if got := run(off).tracker.fitCount; got != 1 {
		t.Fatalf("adaptive update off: %d viewing-position fits, want only the first", got)
	}
	if got := run(DefaultConfig()).tracker.fitCount; got < 2 {
		t.Fatalf("adaptive update on: %d viewing-position fits, want periodic refits", got)
	}
}
