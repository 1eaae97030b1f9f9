// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI) plus the feasibility figures of Sections II
// and IV, on synthetic captures from the scenario package. Each
// experiment is a pure function of its seed, returns a typed result,
// and renders the same rows/series the paper reports. cmd/experiments
// runs them all and writes EXPERIMENTS.md-ready output; bench_test.go
// exposes one benchmark per experiment.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"blinkradar/internal/core"
	"blinkradar/internal/eval"
	"blinkradar/internal/physio"
	"blinkradar/internal/scenario"
	"blinkradar/internal/vehicle"
)

// SessionsPerSubject is the default number of captures per subject in
// the accuracy experiments.
const SessionsPerSubject = 2

// DefaultSubjects is the participant count of the paper (Section VI-A).
const DefaultSubjects = 12

// SessionDuration is the default capture length in seconds.
const SessionDuration = 120

// Session is one evaluated capture.
type Session struct {
	// Spec is the generating scenario.
	Spec scenario.Spec
	// Match is the detection-vs-truth outcome (warm-up excluded).
	Match eval.MatchResult
	// Events are the detected blinks.
	Events []core.BlinkEvent
	// Truth is the scored ground truth (warm-up excluded).
	Truth []physio.Blink
	// Restarts and BinSwitches are pipeline diagnostics.
	Restarts, BinSwitches int
}

// Accuracy is the session's blink-detection accuracy.
func (s Session) Accuracy() float64 { return s.Match.Accuracy() }

// RunSession generates the capture and runs the full pipeline on it.
func RunSession(spec scenario.Spec, cfg core.Config) (Session, error) {
	cap, err := scenario.Generate(spec)
	if err != nil {
		return Session{}, fmt.Errorf("experiments: generate: %w", err)
	}
	events, det, err := core.Detect(cfg, cap.Frames)
	if err != nil {
		return Session{}, fmt.Errorf("experiments: detect: %w", err)
	}
	truth := eval.TrimWarmup(cap.Truth, eval.DefaultWarmup)
	return Session{
		Spec:        spec,
		Match:       eval.Match(truth, events, 0),
		Events:      events,
		Truth:       truth,
		Restarts:    det.Restarts(),
		BinSwitches: det.BinSwitches(),
	}, nil
}

// SessionSpec builds the spec for one (subject, session) pair with the
// given environment defaults. mutate customises the spec before
// generation (nil for none).
func SessionSpec(subjectID int, session int, env scenario.Environment, mutate func(*scenario.Spec)) scenario.Spec {
	spec := scenario.DefaultSpec()
	spec.Subject = physio.NewSubject(subjectID)
	spec.Environment = env
	if env == scenario.Driving {
		spec.Road = vehicle.SmoothHighway
	}
	spec.Duration = SessionDuration
	spec.Seed = int64(subjectID)*1_000_003 + int64(session)*7_723 + 11
	if mutate != nil {
		mutate(&spec)
	}
	return spec
}

// RunPopulation evaluates all subjects x sessions under the mutation
// and returns the sessions in (subject, session) order.
func RunPopulation(cfg core.Config, subjects, sessions int, env scenario.Environment, mutate func(*scenario.Spec)) ([]Session, error) {
	return runOrdered(subjects*sessions, func(i int) (Session, error) {
		return RunSession(SessionSpec(i/sessions+1, i%sessions, env, mutate), cfg)
	})
}

// runOrdered evaluates job(0), ..., job(n-1) on at most GOMAXPROCS
// goroutines and returns the results in index order. Every population
// of the evaluation runs through it: its jobs are independent and
// deterministic, so the results do not depend on scheduling. If any
// job fails, it returns the error of the lowest failing index.
func runOrdered[T any](n int, job func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				out[i], errs[i] = job(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Accuracies extracts the per-session accuracy values.
func Accuracies(sessions []Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = s.Accuracy()
	}
	return out
}

// Summary condenses a sample of accuracies.
type Summary struct {
	// N is the sample size.
	N int
	// Min, Median, P90 and Max describe the distribution.
	Min, Median, P90, Max float64
	// Mean is the arithmetic mean.
	Mean float64
}

// Summarize computes the distribution summary of values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	n := len(s)
	return Summary{
		N:      n,
		Min:    s[0],
		Median: s[n/2],
		P90:    s[n*9/10],
		Max:    s[n-1],
		Mean:   sum / float64(n),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f median=%.3f p90=%.3f max=%.3f mean=%.3f",
		s.N, s.Min, s.Median, s.P90, s.Max, s.Mean)
}

// Table renders rows of label/value pairs with aligned columns, for the
// experiment reports.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// fmtPct renders a fraction as a percentage with one decimal.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
