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

// CDFResult is an accuracy CDF: Fig. 13a's over sessions, Fig. 13b's
// over subjects.
type CDFResult struct {
	// Name identifies the figure.
	Name string
	// PaperMedian is the median the paper reports.
	PaperMedian float64
	// Accuracies holds one value per session or subject.
	Accuracies []float64
	// Summary condenses the distribution.
	Summary Summary
	// CDFX and CDFY are the empirical CDF points.
	CDFX, CDFY []float64
}

// newCDFResult summarises accuracies for the named figure.
func newCDFResult(name string, paperMedian float64, accuracies []float64) (CDFResult, error) {
	cdf, err := eval.NewCDF(accuracies)
	if err != nil {
		return CDFResult{}, err
	}
	xs, ys := cdf.Points()
	return CDFResult{
		Name:        name,
		PaperMedian: paperMedian,
		Accuracies:  accuracies,
		Summary:     Summarize(accuracies),
		CDFX:        xs,
		CDFY:        ys,
	}, nil
}

// String reports the distribution against the paper's headline,
// including the rendered CDF curve.
func (r CDFResult) String() string {
	return fmt.Sprintf("%s: %s (paper median %s)\n", r.Name, r.Summary, fmtPct(r.PaperMedian)) +
		report.CDFChart("", r.Accuracies, 56, 10)
}

// defaultSessions evaluates the full population over lab and driving
// sessions with the paper's configuration, lab sessions first.
func (c *sessionCache) defaultSessions() ([]Session, error) {
	var sessions []Session
	for _, env := range []scenario.Environment{scenario.Lab, scenario.Driving} {
		part, err := c.population(core.DefaultConfig(), DefaultSubjects, env, nil)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, part...)
	}
	return sessions, nil
}

// fig13a is the eye-blink detection accuracy CDF over the full
// population (paper median 95.5%).
func (c *sessionCache) fig13a() (CDFResult, error) {
	sessions, err := c.defaultSessions()
	if err != nil {
		return CDFResult{}, err
	}
	return newCDFResult("Fig 13a: eye-blink detection accuracy CDF", 0.955, Accuracies(sessions))
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

// sweep evaluates the population with the paper's configuration at
// each value that set applies to the spec, in axis order.
func sweep[T any](c *sessionCache, name, shape string, env scenario.Environment, values []T, label func(T) string, set func(*scenario.Spec, T)) (SweepResult, error) {
	res := SweepResult{Name: name, PaperShape: shape}
	for _, v := range values {
		sessions, err := c.population(core.DefaultConfig(), DefaultSubjects, env, func(s *scenario.Spec) { set(s, v) })
		if err != nil {
			return SweepResult{}, err
		}
		res.Points = append(res.Points, SweepPoint{
			Label:   label(v),
			Summary: Summarize(Accuracies(sessions)),
		})
	}
	return res, nil
}

// degrees labels an angle sweep point.
func degrees(a float64) string { return fmt.Sprintf("%.0f deg", a) }

// fig15b sweeps the radar-to-eye distance over 0.2/0.4/0.8 m.
// Paper: >95% at 0.4 m, ~91% at 0.8 m.
func (c *sessionCache) fig15b() (SweepResult, error) {
	return sweep(c, "Fig 15b: distance", "accuracy degrades with range; keep within 0.4 m", scenario.Lab,
		[]float64{0.2, 0.4, 0.8},
		func(d float64) string { return fmt.Sprintf("%.1f m", d) },
		func(s *scenario.Spec, d float64) { s.EyeDistance = d })
}

// fig15c sweeps elevation 0-60 degrees. Paper: >=95% within 30 deg,
// degrading beyond.
func (c *sessionCache) fig15c() (SweepResult, error) {
	return sweep(c, "Fig 15c: elevation", "tolerant to ~30 deg, drops beyond", scenario.Lab,
		[]float64{0, 15, 30, 45, 60}, degrees,
		func(s *scenario.Spec, a float64) { s.ElevationDeg = a })
}

// fig15d sweeps azimuth 0-60 degrees. Paper: >90% within 15 deg,
// significant drop past 30 deg.
func (c *sessionCache) fig15d() (SweepResult, error) {
	return sweep(c, "Fig 15d: azimuth", ">90% within 15 deg, steep drop past 30 deg", scenario.Lab,
		[]float64{0, 15, 30, 45, 60}, degrees,
		func(s *scenario.Spec, a float64) { s.AzimuthDeg = a })
}

// fig16a compares eyewear conditions. Paper: myopia 94%, sunglasses 93%.
func (c *sessionCache) fig16a() (SweepResult, error) {
	return sweep(c, "Fig 16a: glasses", "slight degradation with lenses, sunglasses worst", scenario.Lab,
		[]physio.Glasses{physio.NoGlasses, physio.MyopiaGlasses, physio.Sunglasses}, physio.Glasses.String,
		func(s *scenario.Spec, g physio.Glasses) { s.Subject.Glasses = g })
}

// fig16b compares road types. Paper: smooth best; bumps and manoeuvres
// raise the error.
func (c *sessionCache) fig16b() (SweepResult, error) {
	return sweep(c, "Fig 16b: road types", "smooth roads best; vibration and manoeuvres degrade", scenario.Driving,
		vehicle.AllRoadTypes(), vehicle.RoadType.String,
		func(s *scenario.Spec, r vehicle.RoadType) { s.Road = r })
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

// fig16c evaluates six synthetic subjects spanning the paper's eye-size
// range (smallest 3.5 x 0.8 cm) and reports accuracy per size.
func (c *sessionCache) fig16c() (Fig16cResult, error) {
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
		out, err := c.session(spec, core.DefaultConfig())
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

// fig15a pools miss runs over the whole population under default
// conditions.
func (c *sessionCache) fig15a() (Fig15aResult, error) {
	sessions, err := c.defaultSessions()
	if err != nil {
		return Fig15aResult{}, err
	}
	var stats eval.MissRunStats
	for _, s := range sessions {
		eval.CountRuns(&stats, s.Match.Missed)
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
