package rf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPulseDefaults(t *testing.T) {
	p := NewPulse()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.CarrierHz != DefaultCarrierHz || p.BandwidthHz != DefaultBandwidthHz {
		t.Fatalf("unexpected defaults %+v", p)
	}
}

func TestPulseSigmaBandwidthRelation(t *testing.T) {
	// The envelope spectrum must drop 10 dB at +/- B/2 around DC.
	p := NewPulse()
	sigma := p.Sigma()
	f10 := p.BandwidthHz / 2
	// |G(f)|^2 = exp(-4 (pi f sigma)^2); at f10 this is -10 dB.
	att := -10 * (4 * math.Pi * math.Pi * f10 * f10 * sigma * sigma) / math.Ln10
	if !approx(att, -10, 1e-6) {
		t.Fatalf("attenuation at B/2 = %g dB, want -10", att)
	}
}

func TestPulseEnvelopePeak(t *testing.T) {
	p := NewPulse()
	if got := p.Envelope(p.Duration / 2); !approx(got, p.Amplitude, 1e-12) {
		t.Fatalf("envelope centre %g, want %g", got, p.Amplitude)
	}
	if got := p.Envelope(0); got >= p.Amplitude/2 {
		t.Fatalf("envelope at pulse start %g, want well below peak", got)
	}
}

func TestPulseWaveformErrors(t *testing.T) {
	p := NewPulse()
	if _, err := p.Waveform(1e9); err == nil {
		t.Fatal("under-sampling the carrier must be rejected")
	}
	w, err := p.Waveform(64e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != int(p.Duration*64e9) {
		t.Fatalf("waveform length %d", len(w))
	}
}

func TestPulseValidate(t *testing.T) {
	cases := []func(*Pulse){
		func(p *Pulse) { p.Amplitude = 0 },
		func(p *Pulse) { p.Duration = -1 },
		func(p *Pulse) { p.CarrierHz = 0 },
		func(p *Pulse) { p.BandwidthHz = 0 },
		func(p *Pulse) { p.BandwidthHz = 3 * p.CarrierHz },
	}
	for i, mutate := range cases {
		p := NewPulse()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid pulse accepted", i)
		}
	}
}

func TestFrameMatrixBasics(t *testing.T) {
	m, err := NewFrameMatrix(10, 4, 25, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumFrames() != 10 || m.NumBins() != 4 {
		t.Fatalf("dims %dx%d", m.NumFrames(), m.NumBins())
	}
	if !approx(m.Duration(), 0.4, 1e-12) {
		t.Fatalf("duration %g", m.Duration())
	}
	if !approx(m.FrameTime(5), 0.2, 1e-12) {
		t.Fatalf("frame time %g", m.FrameTime(5))
	}
	if m.DistanceBin(0.025) != 2 {
		t.Fatalf("distance bin %d", m.DistanceBin(0.025))
	}
	if m.DistanceBin(-1) != 0 || m.DistanceBin(100) != 3 {
		t.Fatal("distance bin must clamp")
	}
}

func TestNewFrameMatrixErrors(t *testing.T) {
	if _, err := NewFrameMatrix(0, 4, 25, 0.01); err == nil {
		t.Fatal("zero frames must be rejected")
	}
	if _, err := NewFrameMatrix(4, 4, 0, 0.01); err == nil {
		t.Fatal("zero frame rate must be rejected")
	}
}

func TestFrameMatrixSlowTimeAndStats(t *testing.T) {
	m, err := NewFrameMatrix(3, 2, 25, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		m.Data[k][0] = complex(float64(k), 0)
		m.Data[k][1] = 2i
	}
	st := m.SlowTime(0)
	if st[0] != 0 || st[2] != 2 {
		t.Fatalf("slow time %v", st)
	}
	power := m.MeanPowerPerBin()
	if !approx(power[1], 4, 1e-12) {
		t.Fatalf("bin 1 power %g, want 4", power[1])
	}
}

func TestFrameMatrixCloneIndependent(t *testing.T) {
	m, _ := NewFrameMatrix(2, 2, 25, 0.01)
	m.Data[0][0] = 1
	cp := m.Clone()
	cp.Data[0][0] = 99
	if m.Data[0][0] != 1 {
		t.Fatal("clone shares storage with the original")
	}
}

func TestChannelStaticReflectorGeometry(t *testing.T) {
	cfg := DefaultChannelConfig()
	cfg.NoiseSigma = 0
	cfg.PhaseNoiseSigma = 0
	cfg.DirectPathAmplitude = 0
	ch, err := NewChannel(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const r = 0.4 // the reference range: unit spreading
	m, err := ch.Render([]Reflector{StaticReflector{Name: "t", Range: r, Reflectivity: 1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	bin := m.DistanceBin(r)
	z := m.Data[0][bin]
	// Amplitude: kernel weight at the fractional offset.
	binPos := r / cfg.BinSpacing
	off := (float64(bin) - binPos) / cfg.KernelSigmaBins
	wantAmp := math.Exp(-0.5 * off * off)
	if !approx(cmplx.Abs(z), wantAmp, 1e-9) {
		t.Fatalf("amplitude %g, want %g", cmplx.Abs(z), wantAmp)
	}
	// Phase: -4*pi*fc*r/c modulo 2*pi (Eq. 6).
	wantPhase := math.Mod(-4*math.Pi*cfg.Pulse.CarrierHz*r/SpeedOfLight, 2*math.Pi)
	d := cmplx.Phase(z) - wantPhase
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	if math.Abs(d) > 1e-9 {
		t.Fatalf("phase error %g rad", d)
	}
	// A static scene is constant across frames.
	for k := range m.Data {
		if m.Data[k][bin] != z {
			t.Fatalf("frame %d differs for a static scene", k)
		}
	}
}

func TestChannelSpreadingLaw(t *testing.T) {
	cfg := DefaultChannelConfig()
	cfg.NoiseSigma = 0
	cfg.PhaseNoiseSigma = 0
	cfg.DirectPathAmplitude = 0
	ch, _ := NewChannel(cfg, 1)
	near, err := ch.Render([]Reflector{StaticReflector{Range: 0.4, Reflectivity: 1}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	far, err := ch.Render([]Reflector{StaticReflector{Range: 0.8, Reflectivity: 1}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Peak amplitude must fall by (0.4/0.8)^2 = 4x.
	peak := func(m *FrameMatrix) float64 {
		var best float64
		for _, c := range m.Data[0] {
			if a := cmplx.Abs(c); a > best {
				best = a
			}
		}
		return best
	}
	ratio := peak(near) / peak(far)
	if !approx(ratio, 4, 0.05) {
		t.Fatalf("spreading ratio %g, want ~4", ratio)
	}
}

func TestChannelDeterminism(t *testing.T) {
	cfg := DefaultChannelConfig()
	refl := []Reflector{StaticReflector{Range: 0.4, Reflectivity: 1}}
	ch1, _ := NewChannel(cfg, 42)
	ch2, _ := NewChannel(cfg, 42)
	m1, err := ch1.Render(refl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ch2.Render(refl, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m1.Data {
		for b := range m1.Data[k] {
			if m1.Data[k][b] != m2.Data[k][b] {
				t.Fatalf("same seed diverged at frame %d bin %d", k, b)
			}
		}
	}
}

func TestChannelValidation(t *testing.T) {
	bad := DefaultChannelConfig()
	bad.NumBins = 0
	if _, err := NewChannel(bad, 1); err == nil {
		t.Fatal("zero bins must be rejected")
	}
	cfg := DefaultChannelConfig()
	ch, _ := NewChannel(cfg, 1)
	if _, err := ch.Render(nil, 0); err == nil {
		t.Fatal("zero duration must be rejected")
	}
	if _, err := ch.Render(nil, 0.001); err == nil {
		t.Fatal("sub-frame duration must be rejected")
	}
}

func TestChannelOutOfRangeReflectorIgnored(t *testing.T) {
	cfg := DefaultChannelConfig()
	cfg.NoiseSigma = 0
	cfg.PhaseNoiseSigma = 0
	cfg.DirectPathAmplitude = 0
	ch, _ := NewChannel(cfg, 1)
	m, err := ch.Render([]Reflector{StaticReflector{Range: cfg.MaxRange() + 1, Reflectivity: 5}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for b, p := range m.MeanPowerPerBin() {
		if p != 0 {
			t.Fatalf("out-of-range reflector deposited %g power in bin %d", p, b)
		}
	}
}

func TestFuncReflector(t *testing.T) {
	f := FuncReflector{Name: "x", Fn: func(t float64) (float64, float64) { return t, 2 * t }}
	if f.Label() != "x" {
		t.Fatal("label mismatch")
	}
	r, rho := f.State(3)
	if r != 3 || rho != 6 {
		t.Fatalf("state (%g, %g)", r, rho)
	}
}

func TestChannelConfigValidateProperty(t *testing.T) {
	// The default config must validate regardless of harmless kernel
	// overrides.
	f := func(raw uint8) bool {
		cfg := DefaultChannelConfig()
		cfg.KernelSigmaBins = float64(raw) / 16
		return cfg.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
