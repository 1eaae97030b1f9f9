// Package rf simulates the IR-UWB radar front end used by BlinkRadar:
// Gaussian impulse synthesis (paper Eq. 1-3), a multipath reflection
// channel (Eq. 4-6), an I/Q receiver with thermal and phase noise, and
// the complex baseband frame matrix (slow time x range bins) that every
// downstream stage consumes. The real system uses a commercial X4-class
// system-on-chip impulse radio; this package substitutes a physics-level
// model that produces the same data product.
package rf

import (
	"fmt"
	"math"
)

// SpeedOfLight is the propagation speed of the radar signal in m/s.
const SpeedOfLight = 299792458.0

// Default radio parameters from the paper (Section IV-A / V).
const (
	// DefaultCarrierHz is the carrier frequency: 7.3 GHz.
	DefaultCarrierHz = 7.3e9
	// DefaultBandwidthHz is the -10 dB bandwidth: 1.4 GHz.
	DefaultBandwidthHz = 1.4e9
	// DefaultFramePeriod is the chirp/frame period: 40 ms (25 fps).
	DefaultFramePeriod = 0.040
)

// Pulse describes the transmitted Gaussian impulse
//
//	s(t) = Vtx * exp(-(t - Tp/2)^2 / (2*sigma_p^2))             (Eq. 1)
//	x_k(t) = s(t) * cos(2*pi*fc*(t - k*Ts))                     (Eq. 3)
//
// where sigma_p is derived from the -10 dB bandwidth.
type Pulse struct {
	// Amplitude is Vtx, the peak pulse amplitude in volts.
	Amplitude float64
	// Duration is Tp, the pulse duration in seconds.
	Duration float64
	// CarrierHz is fc, the up-conversion carrier frequency.
	CarrierHz float64
	// BandwidthHz is the -10 dB bandwidth of the pulse.
	BandwidthHz float64
}

// NewPulse returns the paper's transmit pulse: 7.3 GHz carrier, 1.4 GHz
// bandwidth, 2 ns duration, unit amplitude.
func NewPulse() Pulse {
	return Pulse{
		Amplitude:   1,
		Duration:    2e-9,
		CarrierHz:   DefaultCarrierHz,
		BandwidthHz: DefaultBandwidthHz,
	}
}

// Sigma returns sigma_p, the Gaussian envelope standard deviation
// corresponding to the -10 dB bandwidth. For a Gaussian envelope the
// -10 dB (power) bandwidth B satisfies
// sigma_t = sqrt(ln 10) / (pi * B) * ... ; we use the standard relation
// B_-10dB = (2*sqrt(ln(10)/2)) / (2*pi*sigma_t) * 2, simplified to
// sigma_t = sqrt(2*ln(10)) / (2*pi*B/2).
func (p Pulse) Sigma() float64 {
	// Gaussian envelope g(t)=exp(-t^2/(2 sigma^2)) has spectrum
	// G(f) proportional to exp(-2 (pi f sigma)^2). Power drops 10 dB when
	// 4 (pi f sigma)^2 = ln(10), i.e. f10 = sqrt(ln 10)/(2 pi sigma).
	// Two-sided -10 dB bandwidth B = 2 f10 => sigma = sqrt(ln 10)/(pi B).
	return math.Sqrt(math.Log(10)) / (math.Pi * p.BandwidthHz)
}

// Envelope evaluates the baseband Gaussian envelope s(t) at time t
// within the pulse window [0, Duration] (Eq. 1).
func (p Pulse) Envelope(t float64) float64 {
	s := p.Sigma()
	d := t - p.Duration/2
	return p.Amplitude * math.Exp(-d*d/(2*s*s))
}

// Transmitted evaluates the up-converted transmit waveform x(t) at time
// t within the pulse window (Eq. 3 with k = 0).
func (p Pulse) Transmitted(t float64) float64 {
	return p.Envelope(t) * math.Cos(2*math.Pi*p.CarrierHz*t)
}

// Waveform samples the transmitted pulse at the given sample rate over
// the full pulse duration. Used to regenerate Fig. 5(a).
func (p Pulse) Waveform(sampleRate float64) ([]float64, error) {
	if sampleRate <= 2*p.CarrierHz {
		return nil, fmt.Errorf("rf: sample rate %g Hz under-samples the %g Hz carrier", sampleRate, p.CarrierHz)
	}
	n := int(p.Duration * sampleRate)
	if n <= 0 {
		return nil, fmt.Errorf("rf: pulse duration %g too short for sample rate %g", p.Duration, sampleRate)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = p.Transmitted(float64(i) / sampleRate)
	}
	return out, nil
}

// Validate reports whether the pulse parameters are physically usable.
func (p Pulse) Validate() error {
	switch {
	case p.Amplitude <= 0:
		return fmt.Errorf("rf: pulse amplitude must be positive, got %g", p.Amplitude)
	case p.Duration <= 0:
		return fmt.Errorf("rf: pulse duration must be positive, got %g", p.Duration)
	case p.CarrierHz <= 0:
		return fmt.Errorf("rf: carrier frequency must be positive, got %g", p.CarrierHz)
	case p.BandwidthHz <= 0:
		return fmt.Errorf("rf: bandwidth must be positive, got %g", p.BandwidthHz)
	case p.BandwidthHz >= 2*p.CarrierHz:
		return fmt.Errorf("rf: bandwidth %g exceeds twice the carrier %g", p.BandwidthHz, p.CarrierHz)
	}
	return nil
}
