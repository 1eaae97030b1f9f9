// Command experiments reproduces every table and figure from the
// paper's evaluation and prints a report suitable for EXPERIMENTS.md.
//
// Usage:
//
//	experiments            # run everything
//	experiments -only fig13a,fig15b
//	experiments -list
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"blinkradar/internal/core"
	"blinkradar/internal/experiments"
)

// experiment couples a name with its runner.
type experiment struct {
	name string
	desc string
	run  func(cfg core.Config) (fmt.Stringer, error)
}

// stringerFunc adapts plain strings.
type stringerFunc string

func (s stringerFunc) String() string { return string(s) }

func registry() []experiment {
	return []experiment{
		{"table1", "Table I: blink frequency awake vs drowsy", func(core.Config) (fmt.Stringer, error) {
			r, err := experiments.Table1(1)
			return r, err
		}},
		{"table1-detected", "Table I end-to-end: detected blink rates", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Table1Detected(cfg)
			return r, err
		}},
		{"fig5", "Fig 5: transmitted pulse time/frequency", func(core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig5()
			return r, err
		}},
		{"fig6", "Fig 6b: multipath range profile", func(core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig6(6)
			return r, err
		}},
		{"fig7", "Fig 7: noise-reduction cascade SNR", func(core.Config) (fmt.Stringer, error) {
			return experiments.Fig7(7), nil
		}},
		{"fig8", "Fig 8: background subtraction", func(core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig8(8)
			return r, err
		}},
		{"fig9", "Fig 9: blink I/Q signature", func(core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig9(9)
			return r, err
		}},
		{"fig10", "Fig 10: variance-based eye-bin identification", func(core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig10(10)
			return r, err
		}},
		{"fig11", "Fig 11: real-time detection trace", func(core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig11(11)
			return r, err
		}},
		{"fig13a", "Fig 13a: blink accuracy CDF", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig13a(cfg)
			return r, err
		}},
		{"fig13b", "Fig 13b: drowsy accuracy CDF", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig13b(cfg)
			return r, err
		}},
		{"fig15a", "Fig 15a: consecutive missed detections", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig15a(cfg)
			return r, err
		}},
		{"fig15b", "Fig 15b: distance sweep", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig15b(cfg)
			return r, err
		}},
		{"fig15c", "Fig 15c: elevation sweep", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig15c(cfg)
			return r, err
		}},
		{"fig15d", "Fig 15d: azimuth sweep", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig15d(cfg)
			return r, err
		}},
		{"fig16a", "Fig 16a: glasses", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig16a(cfg)
			return r, err
		}},
		{"fig16b", "Fig 16b: road types", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig16b(cfg)
			return r, err
		}},
		{"fig16c", "Fig 16c: eye size", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig16c(cfg)
			return r, err
		}},
		{"fig16d", "Fig 16d: detection window length", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.Fig16d(cfg)
			return r, err
		}},
		{"ext-vitals", "Extension: vital signs from the blink stream", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.ExtVitals()
			return r, err
		}},
		{"ext-devicevib", "Extension: device vibration (Discussion)", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.ExtDeviceVibration(cfg)
			return r, err
		}},
		{"ablation-binselect", "Ablation: variance vs naive bin selection", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.AblationBinSelection(cfg)
			return r, err
		}},
		{"ablation-waveform", "Ablation: I/Q distance vs amplitude/phase-only", func(cfg core.Config) (fmt.Stringer, error) {
			rs, err := experiments.AblationWaveform(cfg)
			if err != nil {
				return nil, err
			}
			var lines []string
			for _, r := range rs {
				lines = append(lines, r.String())
			}
			return stringerFunc(strings.Join(lines, "\n")), nil
		}},
		{"ablation-adaptive", "Ablation: adaptive update disabled", func(cfg core.Config) (fmt.Stringer, error) {
			r, err := experiments.AblationAdaptiveUpdate(cfg)
			return r, err
		}},
		{"ablation-threshold", "Ablation: LEVD threshold off 5-sigma", func(cfg core.Config) (fmt.Stringer, error) {
			rs, err := experiments.AblationThreshold(cfg)
			if err != nil {
				return nil, err
			}
			var lines []string
			for _, r := range rs {
				lines = append(lines, r.String())
			}
			return stringerFunc(strings.Join(lines, "\n")), nil
		}},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		only = flag.String("only", "", "comma-separated experiment names (default all)")
		list = flag.Bool("list", false, "list experiment names and exit")
	)
	flag.Parse()

	exps := registry()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-20s %s\n", e.name, e.desc)
		}
		return
	}
	selected := map[string]bool{}
	if *only != "" {
		for _, n := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(n)] = true
		}
		known := map[string]bool{}
		for _, e := range exps {
			known[e.name] = true
		}
		var unknown []string
		for n := range selected {
			if !known[n] {
				unknown = append(unknown, n)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			log.Fatalf("unknown experiments: %s", strings.Join(unknown, ", "))
		}
	}

	cfg := core.DefaultConfig()
	start := time.Now()
	for _, e := range exps {
		if len(selected) > 0 && !selected[e.name] {
			continue
		}
		t0 := time.Now()
		res, err := e.run(cfg)
		if err != nil {
			log.Fatalf("%s failed: %v", e.name, err)
		}
		fmt.Printf("=== %s — %s (%.1fs)\n%s\n\n", e.name, e.desc, time.Since(t0).Seconds(), res)
	}
	fmt.Printf("total runtime: %.1fs\n", time.Since(start).Seconds())
}
