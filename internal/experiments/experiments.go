package experiments

import "fmt"

// Experiment is one entry of the report: a table, figure, extension or
// ablation of the paper's evaluation.
type Experiment struct {
	// Name identifies the entry (cmd/experiments -only selects by it).
	Name string
	// Desc is the one-line description of the report header.
	Desc string
	// Run regenerates the entry's result.
	Run func() (fmt.Stringer, error)
}

// All returns the evaluation's experiments in report order. The entries
// of one list share a session cache, so running them all evaluates each
// distinct (spec, config) once; every call starts with an empty cache.
func All() []Experiment {
	c := new(sessionCache)
	return []Experiment{
		entry("table1", "Table I: blink frequency awake vs drowsy", table1),
		entry("table1-detected", "Table I end-to-end: detected blink rates", c.table1Detected),
		entry("fig5", "Fig 5: transmitted pulse time/frequency", fig5),
		entry("fig6", "Fig 6b: multipath range profile", fig6),
		entry("fig7", "Fig 7: noise-reduction cascade SNR", func() (Fig7Result, error) { return fig7(), nil }),
		entry("fig8", "Fig 8: background subtraction", fig8),
		entry("fig9", "Fig 9: blink I/Q signature", fig9),
		entry("fig10", "Fig 10: variance-based eye-bin identification", fig10),
		entry("fig11", "Fig 11: real-time detection trace", fig11),
		entry("fig13a", "Fig 13a: blink accuracy CDF", c.fig13a),
		entry("fig13b", "Fig 13b: drowsy accuracy CDF", c.fig13b),
		entry("fig15a", "Fig 15a: consecutive missed detections", c.fig15a),
		entry("fig15b", "Fig 15b: distance sweep", c.fig15b),
		entry("fig15c", "Fig 15c: elevation sweep", c.fig15c),
		entry("fig15d", "Fig 15d: azimuth sweep", c.fig15d),
		entry("fig16a", "Fig 16a: glasses", c.fig16a),
		entry("fig16b", "Fig 16b: road types", c.fig16b),
		entry("fig16c", "Fig 16c: eye size", c.fig16c),
		entry("fig16d", "Fig 16d: detection window length", c.fig16d),
		entry("ext-vitals", "Extension: vital signs from the blink stream", extVitals),
		entry("ext-devicevib", "Extension: device vibration (Discussion)", c.extDeviceVibration),
		entry("ablation-binselect", "Ablation: variance vs naive bin selection", c.ablationBinSelection),
		entry("ablation-waveform", "Ablation: I/Q distance vs amplitude/phase-only", c.ablationWaveform),
		entry("ablation-adaptive", "Ablation: adaptive update disabled", c.ablationAdaptiveUpdate),
		entry("ablation-threshold", "Ablation: LEVD threshold off 5-sigma", c.ablationThreshold),
	}
}

// entry lists a typed experiment under the list's common signature.
func entry[T fmt.Stringer](name, desc string, run func() (T, error)) Experiment {
	return Experiment{Name: name, Desc: desc, Run: func() (fmt.Stringer, error) {
		r, err := run()
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}
