// Package eval implements the evaluation protocol of Section VI:
// matching detected blinks against camera ground truth, accuracy and
// missed-detection statistics, consecutive-miss runs (Fig. 15a) and
// empirical CDFs (Fig. 13).
package eval

import (
	"fmt"
	"math"
	"sort"

	"blinkradar/internal/core"
	"blinkradar/internal/physio"
)

// DefaultMatchTolerance is the maximum |detection - truth| apex offset,
// in seconds, for a detection to count as correct. It covers detection
// timing jitter from smoothing, extremum confirmation at the 40 ms
// frame period, and reopening-edge triggers on long blinks.
const DefaultMatchTolerance = 0.75

// MatchResult is the outcome of matching detections to ground truth.
type MatchResult struct {
	// TruePositives is the number of ground-truth blinks that were
	// detected.
	TruePositives int
	// FalseNegatives is the number of missed ground-truth blinks.
	FalseNegatives int
	// FalsePositives is the number of detections with no matching
	// ground-truth blink.
	FalsePositives int
	// Missed flags, per ground-truth blink in order, whether it was
	// missed — the input to consecutive-miss statistics.
	Missed []bool
}

// Accuracy is the paper's metric: correctly detected blinks over total
// ground-truth blinks. It returns 1 for an empty ground truth.
func (m MatchResult) Accuracy() float64 {
	total := m.TruePositives + m.FalseNegatives
	if total == 0 {
		return 1
	}
	return float64(m.TruePositives) / float64(total)
}

// Precision is TP / (TP + FP); 1 when there are no detections.
func (m MatchResult) Precision() float64 {
	det := m.TruePositives + m.FalsePositives
	if det == 0 {
		return 1
	}
	return float64(m.TruePositives) / float64(det)
}

// F1 is the harmonic mean of accuracy (recall) and precision.
func (m MatchResult) F1() float64 {
	r := m.Accuracy()
	p := m.Precision()
	if r+p == 0 {
		return 0
	}
	return 2 * r * p / (r + p)
}

// Match greedily pairs detections with ground-truth blinks. Each truth
// event matches the nearest unused detection whose apex lies within
// tolerance of the blink interval's midpoint; pairs are chosen in order
// of increasing time difference so a detection cannot be stolen by a
// farther blink.
func Match(truth []physio.Blink, detected []core.BlinkEvent, tolerance float64) MatchResult {
	if tolerance <= 0 {
		tolerance = DefaultMatchTolerance
	}
	type pair struct {
		t, d int
		diff float64
	}
	var pairs []pair
	for ti, tr := range truth {
		mid := tr.Start + tr.Duration/2
		for di, de := range detected {
			diff := math.Abs(de.Time - mid)
			if diff <= tolerance {
				pairs = append(pairs, pair{t: ti, d: di, diff: diff})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].diff < pairs[j].diff })
	usedT := make([]bool, len(truth))
	usedD := make([]bool, len(detected))
	tp := 0
	for _, p := range pairs {
		if usedT[p.t] || usedD[p.d] {
			continue
		}
		usedT[p.t] = true
		usedD[p.d] = true
		tp++
	}
	missed := make([]bool, len(truth))
	fn := 0
	for i := range truth {
		if !usedT[i] {
			missed[i] = true
			fn++
		}
	}
	fp := 0
	for i := range detected {
		if !usedD[i] {
			fp++
		}
	}
	return MatchResult{
		TruePositives:  tp,
		FalseNegatives: fn,
		FalsePositives: fp,
		Missed:         missed,
	}
}

// MissRunStats counts runs of consecutive missed detections, as in
// Fig. 15a: how often exactly 1, 2, 3, ... blinks in a row are missed.
type MissRunStats struct {
	// Runs[k] is the number of maximal runs of exactly k+1 consecutive
	// misses.
	Runs []int
	// Total is the number of ground-truth blinks observed.
	Total int
}

// RateOfRunLength returns the fraction of ground-truth blinks that fall
// in a maximal miss-run of exactly length n (n >= 1).
func (s MissRunStats) RateOfRunLength(n int) float64 {
	if n < 1 || n > len(s.Runs) || s.Total == 0 {
		return 0
	}
	return float64(s.Runs[n-1]*n) / float64(s.Total)
}

// DefaultWarmup is the initial capture period, in seconds, excluded
// from scoring: the pipeline is still in its cold start (background
// priming, bin selection, viewing-position convergence), matching the
// paper's protocol of evaluating after system initialisation.
const DefaultWarmup = 15.0

// TrimWarmup returns the suffix of truth whose events start at or
// after t0 seconds.
func TrimWarmup(truth []physio.Blink, t0 float64) []physio.Blink {
	out := make([]physio.Blink, 0, len(truth))
	for _, b := range truth {
		if b.Start >= t0 {
			out = append(out, b)
		}
	}
	return out
}

// CountRuns aggregates miss flags (possibly across many captures; pass
// each capture separately to avoid bridging runs across boundaries).
func CountRuns(stats *MissRunStats, missed []bool) {
	stats.Total += len(missed)
	run := 0
	flush := func() {
		if run == 0 {
			return
		}
		for len(stats.Runs) < run {
			stats.Runs = append(stats.Runs, 0)
		}
		stats.Runs[run-1]++
		run = 0
	}
	for _, m := range missed {
		if m {
			run++
		} else {
			flush()
		}
	}
	flush()
}

// CDF is an empirical cumulative distribution over a sample of values.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF; the input is copied and sorted.
func NewCDF(values []float64) (*CDF, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("eval: CDF needs at least one value")
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	return &CDF{sorted: s}, nil
}

// Points returns (value, cumulative probability) pairs for plotting.
func (c *CDF) Points() (xs, ps []float64) {
	xs = make([]float64, len(c.sorted))
	ps = make([]float64, len(c.sorted))
	copy(xs, c.sorted)
	for i := range ps {
		ps[i] = float64(i+1) / float64(len(c.sorted))
	}
	return xs, ps
}
