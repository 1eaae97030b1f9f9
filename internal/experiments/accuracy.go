package experiments

import (
	"fmt"
	"strings"

	"blinkradar/internal/report"

	"blinkradar/internal/core"
	"blinkradar/internal/eval"
	"blinkradar/internal/physio"
	"blinkradar/internal/scenario"
	"blinkradar/internal/vehicle"
)

// Fig13aResult is the eye-blink detection accuracy CDF (paper median
// 95.5%).
type Fig13aResult struct {
	// Accuracies holds one value per session.
	Accuracies []float64
	// Summary condenses the distribution.
	Summary Summary
	// CDFX and CDFY are the empirical CDF points.
	CDFX, CDFY []float64
}

// Fig13a evaluates the full population over lab and driving sessions.
func Fig13a(cfg core.Config) (Fig13aResult, error) {
	var sessions []Session
	for _, env := range []scenario.Environment{scenario.Lab, scenario.Driving} {
		part, err := RunPopulation(cfg, DefaultSubjects, SessionsPerSubject, env, nil)
		if err != nil {
			return Fig13aResult{}, err
		}
		sessions = append(sessions, part...)
	}
	acc := Accuracies(sessions)
	cdf, err := eval.NewCDF(acc)
	if err != nil {
		return Fig13aResult{}, err
	}
	xs, ys := cdf.Points()
	return Fig13aResult{
		Accuracies: acc,
		Summary:    Summarize(acc),
		CDFX:       xs,
		CDFY:       ys,
	}, nil
}

// String reports the distribution against the paper's headline,
// including the rendered CDF curve.
func (r Fig13aResult) String() string {
	return fmt.Sprintf("Fig 13a: eye-blink detection accuracy CDF: %s (paper median 95.5%%)\n", r.Summary) +
		report.CDFChart("", r.Accuracies, 56, 10)
}

// SweepPoint is one x-axis point of a parameter-sweep experiment.
type SweepPoint struct {
	// Label names the sweep value ("0.4 m", "30 deg", ...).
	Label string
	// Summary condenses the per-session accuracies at this value.
	Summary Summary
}

// SweepResult is a labelled accuracy sweep.
type SweepResult struct {
	// Name identifies the experiment ("Fig 15b: distance", ...).
	Name string
	// Points are the sweep values in axis order.
	Points []SweepPoint
	// PaperShape describes the expected qualitative behaviour.
	PaperShape string
}

// String renders the sweep as a table plus a curve over the sweep
// positions.
func (r SweepResult) String() string {
	rows := make([][]string, 0, len(r.Points))
	xs := make([]float64, 0, len(r.Points))
	ys := make([]float64, 0, len(r.Points))
	for i, p := range r.Points {
		rows = append(rows, []string{p.Label, fmtPct(p.Summary.Median), fmtPct(p.Summary.Mean), fmt.Sprintf("%d", p.Summary.N)})
		xs = append(xs, float64(i))
		ys = append(ys, p.Summary.Median)
	}
	return r.Name + " (" + r.PaperShape + ")\n" +
		Table([]string{"value", "median acc", "mean acc", "n"}, rows) +
		report.SweepChart("", "sweep position", xs, ys, 48, 8)
}

// runSweep evaluates the population at each mutation and labels the
// results.
func runSweep(cfg core.Config, name, shape string, env scenario.Environment, labels []string, mutations []func(*scenario.Spec)) (SweepResult, error) {
	if len(labels) != len(mutations) {
		return SweepResult{}, fmt.Errorf("experiments: %d labels for %d mutations", len(labels), len(mutations))
	}
	res := SweepResult{Name: name, PaperShape: shape}
	for i, mutate := range mutations {
		sessions, err := RunPopulation(cfg, DefaultSubjects, SessionsPerSubject, env, mutate)
		if err != nil {
			return SweepResult{}, err
		}
		res.Points = append(res.Points, SweepPoint{
			Label:   labels[i],
			Summary: Summarize(Accuracies(sessions)),
		})
	}
	return res, nil
}

// Fig15b sweeps the radar-to-eye distance over 0.2/0.4/0.8 m.
// Paper: >95% at 0.4 m, ~91% at 0.8 m.
func Fig15b(cfg core.Config) (SweepResult, error) {
	distances := []float64{0.2, 0.4, 0.8}
	labels := make([]string, len(distances))
	muts := make([]func(*scenario.Spec), len(distances))
	for i, d := range distances {
		d := d
		labels[i] = fmt.Sprintf("%.1f m", d)
		muts[i] = func(s *scenario.Spec) { s.EyeDistance = d }
	}
	return runSweep(cfg, "Fig 15b: distance", "accuracy degrades with range; keep within 0.4 m", scenario.Lab, labels, muts)
}

// Fig15c sweeps elevation 0-60 degrees. Paper: >=95% within 30 deg,
// degrading beyond.
func Fig15c(cfg core.Config) (SweepResult, error) {
	angles := []float64{0, 15, 30, 45, 60}
	labels := make([]string, len(angles))
	muts := make([]func(*scenario.Spec), len(angles))
	for i, a := range angles {
		a := a
		labels[i] = fmt.Sprintf("%.0f deg", a)
		muts[i] = func(s *scenario.Spec) { s.ElevationDeg = a }
	}
	return runSweep(cfg, "Fig 15c: elevation", "tolerant to ~30 deg, drops beyond", scenario.Lab, labels, muts)
}

// Fig15d sweeps azimuth 0-60 degrees. Paper: >90% within 15 deg,
// significant drop past 30 deg.
func Fig15d(cfg core.Config) (SweepResult, error) {
	angles := []float64{0, 15, 30, 45, 60}
	labels := make([]string, len(angles))
	muts := make([]func(*scenario.Spec), len(angles))
	for i, a := range angles {
		a := a
		labels[i] = fmt.Sprintf("%.0f deg", a)
		muts[i] = func(s *scenario.Spec) { s.AzimuthDeg = a }
	}
	return runSweep(cfg, "Fig 15d: azimuth", ">90% within 15 deg, steep drop past 30 deg", scenario.Lab, labels, muts)
}

// Fig16a compares eyewear conditions. Paper: myopia 94%, sunglasses 93%.
func Fig16a(cfg core.Config) (SweepResult, error) {
	glasses := []physio.Glasses{physio.NoGlasses, physio.MyopiaGlasses, physio.Sunglasses}
	labels := make([]string, len(glasses))
	muts := make([]func(*scenario.Spec), len(glasses))
	for i, g := range glasses {
		g := g
		labels[i] = g.String()
		muts[i] = func(s *scenario.Spec) { s.Subject.Glasses = g }
	}
	return runSweep(cfg, "Fig 16a: glasses", "slight degradation with lenses, sunglasses worst", scenario.Lab, labels, muts)
}

// Fig16b compares road types. Paper: smooth best; bumps and manoeuvres
// raise the error.
func Fig16b(cfg core.Config) (SweepResult, error) {
	roads := vehicle.AllRoadTypes()
	labels := make([]string, len(roads))
	muts := make([]func(*scenario.Spec), len(roads))
	for i, r := range roads {
		r := r
		labels[i] = r.String()
		muts[i] = func(s *scenario.Spec) { s.Road = r }
	}
	return runSweep(cfg, "Fig 16b: road types", "smooth roads best; vibration and manoeuvres degrade", scenario.Driving, labels, muts)
}

// Fig16cResult groups accuracy by eye size.
type Fig16cResult struct {
	// Rows pair the eye dimensions with the achieved accuracy, sorted
	// by ascending eye area (S1..S6 as in the paper).
	Rows []Fig16cRow
}

// Fig16cRow is one subject-size group.
type Fig16cRow struct {
	// Label is S1..S6.
	Label string
	// EyeWidthCm and EyeHeightCm give the group's eye dimensions.
	EyeWidthCm, EyeHeightCm float64
	// Summary condenses the group's session accuracies.
	Summary Summary
}

// Fig16c evaluates six synthetic subjects spanning the paper's eye-size
// range (smallest 3.5 x 0.8 cm) and reports accuracy per size.
func Fig16c(cfg core.Config) (Fig16cResult, error) {
	sizes := []struct{ w, h float64 }{
		{0.035, 0.008}, {0.038, 0.009}, {0.041, 0.010},
		{0.044, 0.011}, {0.047, 0.012}, {0.050, 0.014},
	}
	// Four subjects per size, each with SessionsPerSubject sessions.
	const perSize = 4 * SessionsPerSubject
	accs, err := runOrdered(len(sizes)*perSize, func(j int) (float64, error) {
		i, k := j/perSize, j%perSize
		sz := sizes[i]
		spec := SessionSpec((k/SessionsPerSubject+1)*6+i, k%SessionsPerSubject, scenario.Lab, func(s *scenario.Spec) {
			s.Subject.EyeWidthM = sz.w
			s.Subject.EyeHeightM = sz.h
		})
		out, err := RunSession(spec, cfg)
		if err != nil {
			return 0, err
		}
		return out.Accuracy(), nil
	})
	if err != nil {
		return Fig16cResult{}, err
	}
	var res Fig16cResult
	for i, sz := range sizes {
		res.Rows = append(res.Rows, Fig16cRow{
			Label:       fmt.Sprintf("S%d", i+1),
			EyeWidthCm:  sz.w * 100,
			EyeHeightCm: sz.h * 100,
			Summary:     Summarize(accs[i*perSize : (i+1)*perSize]),
		})
	}
	return res, nil
}

// String renders the size table.
func (r Fig16cResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Label,
			fmt.Sprintf("%.1fx%.1f cm", row.EyeWidthCm, row.EyeHeightCm),
			fmtPct(row.Summary.Median),
			fmtPct(row.Summary.Mean),
		})
	}
	return "Fig 16c: eye size (accuracy grows with eye area; smallest stays usable)\n" +
		Table([]string{"group", "eye size", "median acc", "mean acc"}, rows)
}

// Fig15aResult is the consecutive-miss statistic of Fig. 15a.
type Fig15aResult struct {
	// RunRates[k] is the fraction of blinks lost in miss-runs of
	// exactly length k+1 (paper: 4.9% / 2.1% / 0.2%).
	RunRates []float64
	// TotalBlinks is the pooled ground-truth count.
	TotalBlinks int
}

// Fig15a pools miss runs over the whole population under default
// conditions.
func Fig15a(cfg core.Config) (Fig15aResult, error) {
	var stats eval.MissRunStats
	for _, env := range []scenario.Environment{scenario.Lab, scenario.Driving} {
		sessions, err := RunPopulation(cfg, DefaultSubjects, SessionsPerSubject, env, nil)
		if err != nil {
			return Fig15aResult{}, err
		}
		for _, s := range sessions {
			eval.CountRuns(&stats, s.Match.Missed)
		}
	}
	rates := make([]float64, 3)
	for i := range rates {
		rates[i] = stats.RateOfRunLength(i + 1)
	}
	// Include any longer runs in the report tail.
	for n := 4; n <= len(stats.Runs); n++ {
		rates = append(rates, stats.RateOfRunLength(n))
	}
	return Fig15aResult{RunRates: rates, TotalBlinks: stats.Total}, nil
}

// String renders the run-length histogram.
func (r Fig15aResult) String() string {
	parts := make([]string, len(r.RunRates))
	for i, v := range r.RunRates {
		parts[i] = fmt.Sprintf("%dx: %s", i+1, fmtPct(v))
	}
	return fmt.Sprintf("Fig 15a: consecutive missed detections over %d blinks: %s (paper: 4.9%% / 2.1%% / 0.2%%)",
		r.TotalBlinks, strings.Join(parts, ", "))
}
