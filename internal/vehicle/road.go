// Package vehicle models the driving environment that interferes with
// radar blink sensing: road-induced body vibration, driving manoeuvres
// that sway the driver, and the static cabin clutter (dashboard, seats,
// steering wheel) that background subtraction must remove. The paper
// evaluates nine road/traffic conditions (Fig. 16b); this package maps
// them onto four roughness/manoeuvre classes as in the figure.
package vehicle

import (
	"fmt"
	"math"
	"math/rand"
)

// RoadType enumerates the road and traffic conditions of the paper's
// Section VI-H evaluation.
type RoadType int

const (
	// SmoothHighway is a smooth road with no manoeuvres (road type 1).
	SmoothHighway RoadType = iota + 1
	// UrbanRoad has mild roughness and occasional slow manoeuvres
	// (road type 2: uphill/downhill/intersection).
	UrbanRoad
	// ManoeuvreHeavy includes turns, roundabouts and U-turns
	// (road type 3).
	ManoeuvreHeavy
	// BumpyRoad is a rough surface with sustained vibration
	// (road type 4).
	BumpyRoad
)

// String implements fmt.Stringer.
func (r RoadType) String() string {
	switch r {
	case SmoothHighway:
		return "smooth-highway"
	case UrbanRoad:
		return "urban"
	case ManoeuvreHeavy:
		return "manoeuvre-heavy"
	case BumpyRoad:
		return "bumpy"
	default:
		return fmt.Sprintf("RoadType(%d)", int(r))
	}
}

// AllRoadTypes lists the four evaluated classes in figure order.
func AllRoadTypes() []RoadType {
	return []RoadType{SmoothHighway, UrbanRoad, ManoeuvreHeavy, BumpyRoad}
}

// Profile returns the vibration/manoeuvre parameters of the road type.
func (r RoadType) Profile() VibrationConfig {
	switch r {
	case UrbanRoad:
		return VibrationConfig{
			VibrationRMS:      0.0009,
			VibrationBandHz:   [2]float64{1.5, 9},
			ManoeuvreRate:     1.0 / 30,
			ManoeuvreSwayM:    0.008,
			ManoeuvreDuration: 3,
		}
	case ManoeuvreHeavy:
		return VibrationConfig{
			VibrationRMS:      0.0012,
			VibrationBandHz:   [2]float64{1.5, 9},
			ManoeuvreRate:     1.0 / 12,
			ManoeuvreSwayM:    0.020,
			ManoeuvreDuration: 4,
		}
	case BumpyRoad:
		return VibrationConfig{
			VibrationRMS:      0.0030,
			VibrationBandHz:   [2]float64{2, 12},
			ManoeuvreRate:     1.0 / 25,
			ManoeuvreSwayM:    0.012,
			ManoeuvreDuration: 3,
		}
	default: // SmoothHighway and unknown values degrade gracefully.
		return VibrationConfig{
			VibrationRMS:      0.0004,
			VibrationBandHz:   [2]float64{1.5, 8},
			ManoeuvreRate:     1.0 / 90,
			ManoeuvreSwayM:    0.004,
			ManoeuvreDuration: 3,
		}
	}
}

// VibrationConfig parameterises the body motion a road induces.
type VibrationConfig struct {
	// VibrationRMS is the RMS radar-to-body range modulation from
	// road texture, in metres.
	VibrationRMS float64
	// VibrationBandHz is the vibration band [low, high] in hertz.
	VibrationBandHz [2]float64
	// ManoeuvreRate is the mean number of manoeuvres per second.
	ManoeuvreRate float64
	// ManoeuvreSwayM is the peak body sway per manoeuvre in metres.
	ManoeuvreSwayM float64
	// ManoeuvreDuration is the manoeuvre length in seconds.
	ManoeuvreDuration float64
}

// manoeuvre is one turn/brake event swaying the driver's body.
type manoeuvre struct {
	start, duration, sway float64
}

// Vibration is a precomputed, deterministic body-vibration waveform for
// one capture: band-limited road texture plus manoeuvre sway. Sampled
// at construction so evaluation is pure and O(1) per call.
type Vibration struct {
	samples    []float64
	sampleRate float64
}

// GenerateVibration renders the vibration waveform for a capture of the
// given duration at the given sample rate (use the radar frame rate).
func GenerateVibration(cfg VibrationConfig, duration, sampleRate float64, rng *rand.Rand) (*Vibration, error) {
	if duration <= 0 || sampleRate <= 0 {
		return nil, fmt.Errorf("vehicle: duration and sample rate must be positive, got %g, %g", duration, sampleRate)
	}
	n := int(duration*sampleRate) + 1
	samples := make([]float64, n)

	// Band-limited noise: sum of randomly-phased tones across the band.
	// A handful of tones gives a realistic, non-repeating texture.
	const tones = 24
	lo, hi := cfg.VibrationBandHz[0], cfg.VibrationBandHz[1]
	if hi <= lo {
		hi = lo + 1
	}
	amp := cfg.VibrationRMS * math.Sqrt(2.0/float64(tones))
	type tone struct{ f, phase, a float64 }
	ts := make([]tone, tones)
	for i := range ts {
		ts[i] = tone{
			f:     lo + (hi-lo)*rng.Float64(),
			phase: rng.Float64() * 2 * math.Pi,
			a:     amp * (0.5 + rng.Float64()),
		}
	}

	// Manoeuvres: Poisson arrivals with raised-cosine sway profiles.
	var events []manoeuvre
	if cfg.ManoeuvreRate > 0 {
		t := rng.ExpFloat64() / cfg.ManoeuvreRate
		for t < duration {
			events = append(events, manoeuvre{
				start:    t,
				duration: cfg.ManoeuvreDuration * (0.7 + 0.6*rng.Float64()),
				sway:     cfg.ManoeuvreSwayM * (2*rng.Float64() - 1),
			})
			t += rng.ExpFloat64() / cfg.ManoeuvreRate
		}
	}

	for i := range samples {
		t := float64(i) / sampleRate
		var v float64
		for _, tn := range ts {
			v += tn.a * math.Sin(2*math.Pi*tn.f*t+tn.phase)
		}
		for _, e := range events {
			if t < e.start || t > e.start+e.duration {
				continue
			}
			p := (t - e.start) / e.duration
			// Half-sine bump: sway out and back.
			v += e.sway * math.Sin(math.Pi*p)
		}
		samples[i] = v
	}
	return &Vibration{samples: samples, sampleRate: sampleRate}, nil
}

// At returns the body displacement in metres at time t, with linear
// interpolation between precomputed samples.
func (v *Vibration) At(t float64) float64 {
	if len(v.samples) == 0 {
		return 0
	}
	pos := t * v.sampleRate
	if pos <= 0 {
		return v.samples[0]
	}
	lo := int(pos)
	if lo >= len(v.samples)-1 {
		return v.samples[len(v.samples)-1]
	}
	frac := pos - float64(lo)
	return v.samples[lo]*(1-frac) + v.samples[lo+1]*frac
}
