package rf

import (
	"math"
	"testing"
)

// peak returns the (velocity, range, power) of the map's strongest
// cell, optionally excluding the zero-Doppler row where static clutter
// lives.
func peak(rd *RangeDopplerMap, excludeStatic bool) (velocity, rangeM, power float64) {
	power = -1
	for d, row := range rd.Power {
		if excludeStatic && rd.Velocities[d] == 0 {
			continue
		}
		for b, p := range row {
			if p > power {
				power = p
				velocity = rd.Velocities[d]
				rangeM = (float64(b) + 0.5) * rd.BinSpacing
			}
		}
	}
	return velocity, rangeM, power
}

func TestRangeDopplerStaticScene(t *testing.T) {
	cfg := DefaultChannelConfig()
	cfg.NoiseSigma = 0
	cfg.PhaseNoiseSigma = 0
	cfg.DirectPathAmplitude = 0
	ch, err := NewChannel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ch.Render([]Reflector{StaticReflector{Range: 0.5, Reflectivity: 1}}, 5)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ComputeRangeDoppler(m, 0, 64, cfg.Pulse.CarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	// All energy must sit in the zero-Doppler row at the right range.
	vel, rng, _ := peak(rd, false)
	if vel != 0 {
		t.Fatalf("static scene peak at %g m/s, want 0", vel)
	}
	if math.Abs(rng-0.5) > 2*cfg.BinSpacing {
		t.Fatalf("peak range %g, want 0.5", rng)
	}
	var profile []float64
	for d, v := range rd.Velocities {
		if v == 0 {
			profile = rd.Power[d]
		}
	}
	if profile == nil {
		t.Fatal("no zero-Doppler row")
	}
	// Hann sidelobes sit ~31 dB down; outside the main lobe the
	// static target must be strongly suppressed.
	if got := rd.Power[5][m.DistanceBin(0.5)]; got > profile[m.DistanceBin(0.5)]*1e-2 {
		t.Fatalf("static target leaks %g into a moving bin", got)
	}
}

func TestRangeDopplerMovingTarget(t *testing.T) {
	cfg := DefaultChannelConfig()
	cfg.NoiseSigma = 0
	cfg.PhaseNoiseSigma = 0
	cfg.DirectPathAmplitude = 0
	ch, err := NewChannel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Approaching at 5 mm/s: phase advances at 2 v fc / c ~ 0.24 Hz,
	// well inside the 12.5 Hz Doppler span at 25 fps.
	const v = -0.005
	target := FuncReflector{
		Name: "walker",
		Fn: func(tt float64) (float64, float64) {
			return 0.8 + v*tt, 1
		},
	}
	m, err := ch.Render([]Reflector{target}, 11)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ComputeRangeDoppler(m, 0, 256, cfg.Pulse.CarrierHz)
	if err != nil {
		t.Fatal(err)
	}
	vel, rng, _ := peak(rd, true)
	if math.Abs(vel-v) > 0.002 {
		t.Fatalf("velocity %g m/s, want %g", vel, v)
	}
	if math.Abs(rng-0.78) > 0.06 {
		t.Fatalf("range %g, want ~0.78", rng)
	}
}

func TestRangeDopplerErrors(t *testing.T) {
	m, _ := NewFrameMatrix(16, 4, 25, 0.01)
	if _, err := ComputeRangeDoppler(m, 0, 16, 0); err == nil {
		t.Fatal("zero carrier must be rejected")
	}
	if _, err := ComputeRangeDoppler(m, 20, 16, 7.3e9); err == nil {
		t.Fatal("out-of-range start must be rejected")
	}
	if _, err := ComputeRangeDoppler(m, 12, 16, 7.3e9); err == nil {
		t.Fatal("too few frames must be rejected")
	}
}
