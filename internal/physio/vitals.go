package physio

import (
	"fmt"
	"math"
	"math/rand"
)

func sqrt(v float64) float64 { return math.Sqrt(v) }

// Respiration models chest breathing motion and its attenuated coupling
// into the head/eye region. The chest displaces 3-5 cm per breath
// (paper Section IV-D); the head sways by a small fraction of that.
// This periodic motion is the "embedded interference" the paper
// exploits: it makes the eye's I/Q samples trace an arc even when no
// blink occurs, which is how the eye's range bin is identified quickly.
type Respiration struct {
	// RateHz is the breathing rate in hertz (typical 0.2-0.3 Hz).
	RateHz float64
	// ChestAmplitude is the chest displacement amplitude in metres.
	ChestAmplitude float64
	// HeadCoupling is the fraction of chest motion reaching the head.
	HeadCoupling float64
	// Phase is the initial phase in radians.
	Phase float64
	// Harmonic2 is the relative amplitude of the second harmonic,
	// capturing the asymmetric inhale/exhale shape.
	Harmonic2 float64
}

// NewRespiration samples a plausible respiration profile.
func NewRespiration(rng *rand.Rand) Respiration {
	return Respiration{
		RateHz:         0.20 + 0.10*rng.Float64(),
		ChestAmplitude: 0.015 + 0.010*rng.Float64(), // 3-5 cm peak-to-peak
		HeadCoupling:   0.03 + 0.02*rng.Float64(),
		Phase:          rng.Float64() * 2 * math.Pi,
		Harmonic2:      0.15 + 0.10*rng.Float64(),
	}
}

// Chest returns the chest displacement in metres at time t.
func (r Respiration) Chest(t float64) float64 {
	w := 2 * math.Pi * r.RateHz
	return r.ChestAmplitude * (math.Sin(w*t+r.Phase) + r.Harmonic2*math.Sin(2*w*t+1.3*r.Phase))
}

// Head returns the respiration-coupled head displacement in metres.
func (r Respiration) Head(t float64) float64 {
	return r.HeadCoupling * r.Chest(t)
}

// Heartbeat models the ballistocardiographic (BCG) head motion: blood
// ejection moves the head by roughly 1 mm in sync with the heartbeat
// (paper Section IV-D).
type Heartbeat struct {
	// RateHz is the heart rate in hertz (typical 1.0-1.5 Hz).
	RateHz float64
	// Amplitude is the BCG head displacement amplitude in metres.
	Amplitude float64
	// Phase is the initial phase in radians.
	Phase float64
	// Harmonic2 and Harmonic3 shape the BCG waveform, which is far
	// from sinusoidal.
	Harmonic2, Harmonic3 float64
}

// NewHeartbeat samples a plausible heartbeat profile.
func NewHeartbeat(rng *rand.Rand) Heartbeat {
	return Heartbeat{
		RateHz:    1.0 + 0.5*rng.Float64(),
		Amplitude: 0.0008 + 0.0004*rng.Float64(), // ~1 mm
		Phase:     rng.Float64() * 2 * math.Pi,
		Harmonic2: 0.4 + 0.2*rng.Float64(),
		Harmonic3: 0.15 + 0.1*rng.Float64(),
	}
}

// Head returns the BCG head displacement in metres at time t.
func (h Heartbeat) Head(t float64) float64 {
	w := 2 * math.Pi * h.RateHz
	return h.Amplitude * (math.Sin(w*t+h.Phase) +
		h.Harmonic2*math.Sin(2*w*t+0.7*h.Phase) +
		h.Harmonic3*math.Sin(3*w*t+1.9*h.Phase))
}

// PostureShift is a single voluntary body movement: the driver settles
// into a new position over a short transition.
type PostureShift struct {
	// Time is the shift onset in seconds.
	Time float64
	// Delta is the change in radar-to-body range in metres (signed).
	Delta float64
	// Transition is how long the shift takes in seconds.
	Transition float64
}

// BodyMotion models the sequence of posture shifts over a capture. The
// cumulative displacement is a sum of smooth steps; large shifts are
// what force the tracker to re-acquire its viewing position.
type BodyMotion struct {
	shifts []PostureShift
}

// BodyMotionConfig parameterises posture-shift generation.
type BodyMotionConfig struct {
	// MeanInterval is the mean time between shifts in seconds.
	MeanInterval float64
	// MaxDelta bounds the per-shift range change in metres.
	MaxDelta float64
	// Transition is the shift transition time in seconds.
	Transition float64
}

// DefaultBodyMotionConfig returns small, occasional posture adjustments
// typical of a seated driver.
func DefaultBodyMotionConfig() BodyMotionConfig {
	return BodyMotionConfig{
		MeanInterval: 45,
		MaxDelta:     0.010,
		Transition:   1.2,
	}
}

// GenerateBodyMotion samples posture shifts over [0, duration).
func GenerateBodyMotion(cfg BodyMotionConfig, duration float64, rng *rand.Rand) (*BodyMotion, error) {
	if cfg.MeanInterval <= 0 {
		return nil, fmt.Errorf("physio: mean shift interval must be positive, got %g", cfg.MeanInterval)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("physio: duration must be positive, got %g", duration)
	}
	var shifts []PostureShift
	var cumulative float64
	t := cfg.MeanInterval * (0.5 + rng.Float64())
	for t < duration {
		// Mean-reverting: a seated driver adjusts around an equilibrium
		// posture rather than drifting away from the seat, so each
		// shift partially cancels the accumulated displacement.
		delta := -0.6*cumulative + (2*rng.Float64()-1)*cfg.MaxDelta
		cumulative += delta
		shifts = append(shifts, PostureShift{
			Time:       t,
			Delta:      delta,
			Transition: cfg.Transition,
		})
		t += cfg.MeanInterval * (0.5 + rng.Float64())
	}
	return &BodyMotion{shifts: shifts}, nil
}

// Displacement returns the cumulative posture displacement in metres at
// time t. Each shift ramps in with a raised-cosine profile.
func (b *BodyMotion) Displacement(t float64) float64 {
	var d float64
	for _, s := range b.shifts {
		switch {
		case t <= s.Time:
			// Not started yet; later shifts start even later.
			return d
		case t >= s.Time+s.Transition:
			d += s.Delta
		default:
			p := (t - s.Time) / s.Transition
			d += s.Delta * 0.5 * (1 - math.Cos(math.Pi*p))
		}
	}
	return d
}
