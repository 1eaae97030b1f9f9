// Package physio models the human signals that modulate the radar
// return: the aperiodic, sparse eye-blink process with distinct awake
// and drowsy statistics, eyelid closure kinematics, respiration,
// heartbeat-driven ballistocardiographic (BCG) head motion and
// voluntary posture shifts. The paper's detection pipeline never sees
// these models directly — they drive the rf channel's reflectors, and
// ground-truth blink timestamps are exported for evaluation.
package physio

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// State is the driver's alertness state.
type State int

const (
	// Awake is a vigilant driver: ~18-22 blinks/min, blink duration
	// typically under 400 ms (Caffier et al., paper Section II-A).
	Awake State = iota + 1
	// Drowsy is a fatigued driver: ~24-30 blinks/min with blink
	// durations of 400 ms and beyond (paper Table I).
	Drowsy
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Awake:
		return "awake"
	case Drowsy:
		return "drowsy"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Blink is a single ground-truth eye-blink event.
type Blink struct {
	// Start is the blink onset time in seconds from capture start.
	Start float64
	// Duration is the full blink duration (closing through reopening)
	// in seconds.
	Duration float64
}

// End returns the time the eye is fully reopened.
func (b Blink) End() float64 { return b.Start + b.Duration }

// BlinkStats parameterises the stochastic blink process.
type BlinkStats struct {
	// RatePerMin is the mean blink rate in blinks per minute.
	RatePerMin float64
	// RateJitter is the relative standard deviation of inter-blink
	// intervals (0.3 means intervals vary by ~30%).
	RateJitter float64
	// MeanDuration is the mean blink duration in seconds.
	MeanDuration float64
	// DurationJitter is the relative standard deviation of durations.
	DurationJitter float64
	// MinDuration floors the sampled duration (75 ms physiological
	// minimum per the paper).
	MinDuration float64
	// LongGapProb is the probability that any inter-blink interval is
	// replaced by a long staring gap, reproducing the "hundreds of ms
	// to tens of seconds" spread the paper highlights.
	LongGapProb float64
	// LongGapScale multiplies the base interval for long gaps.
	LongGapScale float64
}

// DefaultStats returns representative blink statistics for the given
// state, matching Table I (awake ~20/min, drowsy ~26/min) and the
// duration discussion in Section II-A.
func DefaultStats(s State) BlinkStats {
	switch s {
	case Drowsy:
		return BlinkStats{
			RatePerMin:     26,
			RateJitter:     0.35,
			MeanDuration:   0.50,
			DurationJitter: 0.25,
			MinDuration:    0.30,
			LongGapProb:    0.02,
			LongGapScale:   4,
		}
	default:
		return BlinkStats{
			RatePerMin:     20,
			RateJitter:     0.40,
			MeanDuration:   0.22,
			DurationJitter: 0.30,
			MinDuration:    0.075,
			LongGapProb:    0.06,
			LongGapScale:   5,
		}
	}
}

// Validate reports whether the statistics are usable.
func (s BlinkStats) Validate() error {
	switch {
	case s.RatePerMin <= 0:
		return fmt.Errorf("physio: blink rate must be positive, got %g", s.RatePerMin)
	case s.MeanDuration <= 0:
		return fmt.Errorf("physio: mean blink duration must be positive, got %g", s.MeanDuration)
	case s.MinDuration < 0 || s.MinDuration > s.MeanDuration*2:
		return fmt.Errorf("physio: min duration %g inconsistent with mean %g", s.MinDuration, s.MeanDuration)
	case s.RateJitter < 0 || s.DurationJitter < 0:
		return fmt.Errorf("physio: jitters must be non-negative")
	case s.LongGapProb < 0 || s.LongGapProb > 1:
		return fmt.Errorf("physio: long gap probability must be in [0,1], got %g", s.LongGapProb)
	}
	return nil
}

// GenerateBlinks samples a blink event sequence covering [0, duration)
// seconds. Events never overlap; each inter-blink interval is sampled
// as a jittered mean interval, occasionally replaced by a long staring
// gap. The result is sorted by start time.
func GenerateBlinks(stats BlinkStats, duration float64, rng *rand.Rand) ([]Blink, error) {
	if err := stats.Validate(); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("physio: duration must be positive, got %g", duration)
	}
	meanInterval := 60 / stats.RatePerMin
	var blinks []Blink
	// Start at a random phase so captures do not all begin with an
	// immediate blink.
	t := rng.Float64() * meanInterval
	for t < duration {
		d := stats.MeanDuration * (1 + stats.DurationJitter*rng.NormFloat64())
		if d < stats.MinDuration {
			d = stats.MinDuration
		}
		if t+d > duration {
			break
		}
		blinks = append(blinks, Blink{Start: t, Duration: d})
		gap := meanInterval * (1 + stats.RateJitter*rng.NormFloat64())
		if rng.Float64() < stats.LongGapProb {
			gap *= stats.LongGapScale
		}
		// Physiological refractory: the eye stays open at least ~0.8 s
		// between spontaneous blinks.
		if gap < d+0.8 {
			gap = d + 0.8
		}
		t += gap
	}
	sort.Slice(blinks, func(i, j int) bool { return blinks[i].Start < blinks[j].Start })
	return blinks, nil
}

// Eyelid converts a blink sequence into a continuous closure waveform.
// Closure(t) is 0 with the eye fully open and 1 fully closed. A blink
// has three stages (paper Section II-B): a fast closing stage (~1/3 of
// the duration), a closed plateau, and a slower opening stage. Raised-
// cosine ramps keep the waveform differentiable like real lid motion.
type Eyelid struct {
	blinks []Blink
}

// NewEyelid returns an eyelid over the given (sorted, non-overlapping)
// blink events. The slice is copied.
func NewEyelid(blinks []Blink) *Eyelid {
	b := make([]Blink, len(blinks))
	copy(b, blinks)
	sort.Slice(b, func(i, j int) bool { return b[i].Start < b[j].Start })
	return &Eyelid{blinks: b}
}

// Closure returns the lid closure fraction in [0, 1] at time t.
func (e *Eyelid) Closure(t float64) float64 {
	// Binary search for the last blink starting at or before t.
	i := sort.Search(len(e.blinks), func(i int) bool { return e.blinks[i].Start > t })
	if i == 0 {
		return 0
	}
	b := e.blinks[i-1]
	if t >= b.End() {
		return 0
	}
	frac := (t - b.Start) / b.Duration
	const (
		closeEnd = 0.30 // closing stage ends
		openBeg  = 0.60 // opening stage begins
	)
	switch {
	case frac < closeEnd:
		// Raised-cosine rise 0 -> 1.
		return 0.5 * (1 - math.Cos(math.Pi*frac/closeEnd))
	case frac < openBeg:
		return 1
	default:
		// Raised-cosine fall 1 -> 0 over the opening stage.
		p := (frac - openBeg) / (1 - openBeg)
		return 0.5 * (1 + math.Cos(math.Pi*p))
	}
}
