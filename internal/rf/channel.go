package rf

import (
	"fmt"
	"math"
	"math/rand"
)

// Reflector is anything that returns radar energy: the driver's eye,
// head, chest, cabin clutter, or a fidgeting passenger. Implementations
// live in the physio, vehicle and scenario packages.
type Reflector interface {
	// Label identifies the reflector in diagnostics.
	Label() string
	// State returns the instantaneous radar-to-reflector range in
	// metres and the dimensionless reflectivity (amplitude factor,
	// already including antenna gain and any lens attenuation) at
	// capture time t seconds.
	State(t float64) (rangeM, reflectivity float64)
}

// StaticReflector is a fixed-position reflector such as the dashboard,
// seat back or steering wheel (the clutter that background subtraction
// removes).
type StaticReflector struct {
	// Name identifies the reflector.
	Name string
	// Range is the constant radar-to-reflector distance in metres.
	Range float64
	// Reflectivity is the constant amplitude factor.
	Reflectivity float64
}

// Label implements Reflector.
func (s StaticReflector) Label() string { return s.Name }

// State implements Reflector.
func (s StaticReflector) State(float64) (float64, float64) {
	return s.Range, s.Reflectivity
}

// FuncReflector adapts a closure to the Reflector interface.
type FuncReflector struct {
	// Name identifies the reflector.
	Name string
	// Fn returns (range, reflectivity) at time t.
	Fn func(t float64) (float64, float64)
}

// Label implements Reflector.
func (f FuncReflector) Label() string { return f.Name }

// State implements Reflector.
func (f FuncReflector) State(t float64) (float64, float64) { return f.Fn(t) }

// ChannelConfig parameterises the simulated radar channel and receiver.
type ChannelConfig struct {
	// Pulse is the transmitted impulse (Eq. 1-3 parameters).
	Pulse Pulse
	// FrameRate is the slow-time rate in frames per second
	// (paper: 1/40 ms = 25 fps).
	FrameRate float64
	// NumBins is the number of fast-time range bins per frame.
	NumBins int
	// BinSpacing is the range covered by one bin in metres. The
	// paper quotes 1.07 cm separable distance; the default matches it.
	BinSpacing float64
	// ReferenceRange is the range at which a reflectivity of 1 yields
	// a unit-amplitude return; amplitudes scale as (ReferenceRange/R)^2
	// (two-way spreading).
	ReferenceRange float64
	// NoiseSigma is the per-bin complex thermal noise standard
	// deviation (per real component).
	NoiseSigma float64
	// PhaseNoiseSigma is the common per-frame oscillator phase jitter
	// standard deviation in radians.
	PhaseNoiseSigma float64
	// DirectPathAmplitude is the magnitude of the transmit-to-receive
	// antenna leakage that appears at bin 0 (the strongest peak in
	// Fig. 6(b)).
	DirectPathAmplitude float64
	// KernelSigmaBins is the standard deviation, in bins, of the
	// Gaussian kernel that spreads each reflector's return across
	// neighbouring range bins. The real radio applies matched-filter
	// pulse compression, so the post-compression profile is much
	// narrower than the raw envelope. The default of 4 bins
	// (about 4.3 cm sigma, or ~10 cm at -3 dB) matches the c/(2B)
	// resolution of the 1.4 GHz pulse. Zero selects the default.
	KernelSigmaBins float64
}

// DefaultChannelConfig returns the paper's radio configuration: 25 fps,
// 1.07 cm bins covering about 1.6 m, reference range 0.4 m.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		Pulse:               NewPulse(),
		FrameRate:           1 / DefaultFramePeriod,
		NumBins:             150,
		BinSpacing:          0.0107,
		ReferenceRange:      0.4,
		NoiseSigma:          0.005,
		PhaseNoiseSigma:     0.002,
		DirectPathAmplitude: 1.8,
		KernelSigmaBins:     4.0,
	}
}

// Validate reports whether the configuration is usable.
func (c ChannelConfig) Validate() error {
	if err := c.Pulse.Validate(); err != nil {
		return err
	}
	switch {
	case c.FrameRate <= 0:
		return fmt.Errorf("rf: frame rate must be positive, got %g", c.FrameRate)
	case c.NumBins <= 0:
		return fmt.Errorf("rf: number of bins must be positive, got %d", c.NumBins)
	case c.BinSpacing <= 0:
		return fmt.Errorf("rf: bin spacing must be positive, got %g", c.BinSpacing)
	case c.ReferenceRange <= 0:
		return fmt.Errorf("rf: reference range must be positive, got %g", c.ReferenceRange)
	case c.NoiseSigma < 0:
		return fmt.Errorf("rf: noise sigma must be non-negative, got %g", c.NoiseSigma)
	case c.PhaseNoiseSigma < 0:
		return fmt.Errorf("rf: phase noise sigma must be non-negative, got %g", c.PhaseNoiseSigma)
	case c.KernelSigmaBins < 0:
		return fmt.Errorf("rf: kernel sigma must be non-negative, got %g", c.KernelSigmaBins)
	}
	return nil
}

// MaxRange returns the largest range covered by the configured bins.
func (c ChannelConfig) MaxRange() float64 {
	return float64(c.NumBins) * c.BinSpacing
}

// Channel renders reflectors into frame matrices. It owns a random
// source for noise generation, so captures are reproducible given the
// same seed. Channel is not safe for concurrent use.
type Channel struct {
	cfg ChannelConfig
	rng *rand.Rand
	// kernelSigmaBins is the pulse energy spread (in bins) applied
	// around each reflector's fractional bin position.
	kernelSigmaBins float64
}

// NewChannel constructs a channel with the given configuration and
// deterministic seed.
func NewChannel(cfg ChannelConfig, seed int64) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sigma := cfg.KernelSigmaBins
	if sigma == 0 {
		sigma = 4
	}
	return &Channel{
		cfg:             cfg,
		rng:             rand.New(rand.NewSource(seed)),
		kernelSigmaBins: sigma,
	}, nil
}

// Render simulates a capture of the given duration over the supplied
// reflectors and returns the resulting frame matrix (Eq. 6: each
// reflector contributes alpha_p * exp(-j*4*pi*fc*R_p/c) spread over the
// bins its pulse envelope covers, plus receiver noise).
func (ch *Channel) Render(reflectors []Reflector, duration float64) (*FrameMatrix, error) {
	if duration <= 0 {
		return nil, fmt.Errorf("rf: capture duration must be positive, got %g", duration)
	}
	frames := int(duration * ch.cfg.FrameRate)
	if frames == 0 {
		return nil, fmt.Errorf("rf: duration %g shorter than one frame period", duration)
	}
	m, err := NewFrameMatrix(frames, ch.cfg.NumBins, ch.cfg.FrameRate, ch.cfg.BinSpacing)
	if err != nil {
		return nil, err
	}
	waveNumber := 4 * math.Pi * ch.cfg.Pulse.CarrierHz / SpeedOfLight
	halfWidth := int(3*ch.kernelSigmaBins) + 1
	for k := 0; k < frames; k++ {
		t := float64(k) / ch.cfg.FrameRate
		row := m.Data[k]
		// Direct antenna leakage at bin 0.
		if ch.cfg.DirectPathAmplitude > 0 {
			ch.deposit(row, 0, ch.cfg.DirectPathAmplitude, 0, halfWidth)
		}
		for _, r := range reflectors {
			dist, rho := r.State(t)
			if rho == 0 || dist <= 0 || dist >= ch.cfg.MaxRange() {
				continue
			}
			spread := ch.cfg.ReferenceRange / dist
			amp := rho * spread * spread
			phase := -waveNumber * dist
			binPos := dist / ch.cfg.BinSpacing
			ch.deposit(row, binPos, amp, phase, halfWidth)
		}
		// Receiver impairments: common oscillator phase jitter plus
		// additive complex white noise.
		if ch.cfg.PhaseNoiseSigma > 0 {
			jitter := ch.rng.NormFloat64() * ch.cfg.PhaseNoiseSigma
			rot := complex(math.Cos(jitter), math.Sin(jitter))
			for b := range row {
				row[b] *= rot
			}
		}
		if ch.cfg.NoiseSigma > 0 {
			for b := range row {
				row[b] += complex(ch.rng.NormFloat64()*ch.cfg.NoiseSigma, ch.rng.NormFloat64()*ch.cfg.NoiseSigma)
			}
		}
	}
	return m, nil
}

// deposit adds a complex return of the given amplitude and phase,
// spread across bins around the fractional position binPos with the
// pulse-shaped Gaussian kernel.
func (ch *Channel) deposit(row []complex128, binPos, amp, phase float64, halfWidth int) {
	centre := int(math.Round(binPos))
	sigma := ch.kernelSigmaBins
	c := complex(amp*math.Cos(phase), amp*math.Sin(phase))
	for b := centre - halfWidth; b <= centre+halfWidth; b++ {
		if b < 0 || b >= len(row) {
			continue
		}
		d := (float64(b) - binPos) / sigma
		row[b] += c * complex(math.Exp(-0.5*d*d), 0)
	}
}
