package vitals

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"blinkradar/internal/core"
	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/scenario"
)

// syntheticVitalSeries builds an arc trajectory whose angle is driven
// by a respiration sinusoid plus a weaker heartbeat component.
func syntheticVitalSeries(n int, fps, respHz, heartHz float64, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	center := complex(1.5, -0.8)
	out := make([]complex128, n)
	for i := range out {
		t := float64(i) / fps
		angle := 0.4*math.Sin(2*math.Pi*respHz*t) + 0.08*math.Sin(2*math.Pi*heartHz*t)
		out[i] = center + cmplx.Rect(1.2, angle) +
			complex(rng.NormFloat64()*0.004, rng.NormFloat64()*0.004)
	}
	return out
}

func TestEstimateFromSeriesSynthetic(t *testing.T) {
	const fps = 25.0
	const respHz, heartHz = 0.25, 1.2
	series := syntheticVitalSeries(int(60*fps), fps, respHz, heartHz, 1)
	est, err := EstimateFromSeries(series, fps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.RespirationHz-respHz) > 0.03 {
		t.Fatalf("respiration %g Hz, want %g", est.RespirationHz, respHz)
	}
	if math.Abs(est.HeartHz-heartHz) > 0.06 {
		t.Fatalf("heart %g Hz, want %g", est.HeartHz, heartHz)
	}
	if est.RespirationSNR < 3 || est.HeartSNR < 3 {
		t.Fatalf("weak SNRs %g/%g", est.RespirationSNR, est.HeartSNR)
	}
	if est.RespirationBPM() != est.RespirationHz*60 {
		t.Fatal("BPM conversion broken")
	}
}

func TestEstimateRejectsHarmonicLeakage(t *testing.T) {
	// Respiration at 0.45 Hz puts harmonics at 0.9/1.35/1.8 Hz inside
	// the heart band; with a true heartbeat at 1.1 Hz the estimator
	// must not report a harmonic.
	const fps = 25.0
	series := syntheticVitalSeries(int(90*fps), fps, 0.45, 1.1, 2)
	est, err := EstimateFromSeries(series, fps)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.HeartHz-1.1) > 0.08 {
		t.Fatalf("heart estimate %g Hz captured by a respiration harmonic, want 1.1", est.HeartHz)
	}
}

func TestEstimateErrors(t *testing.T) {
	series := syntheticVitalSeries(100, 25, 0.25, 1.2, 3)
	if _, err := EstimateFromSeries(series, 0); err == nil {
		t.Fatal("zero fps must be rejected")
	}
	if _, err := EstimateFromSeries(series, 25); err == nil {
		t.Fatal("short window must be rejected")
	}
}

func TestEstimateNoSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	series := make([]complex128, 800)
	for i := range series {
		series[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	est, err := EstimateFromSeries(series, 25)
	if err != nil {
		// A degenerate fit on pure noise is acceptable.
		return
	}
	// Zero-padded periodograms of white noise show peak-to-median
	// ratios of ~5-20; anything far beyond that would mean the
	// estimator manufactures confidence from nothing.
	if est.RespirationSNR > 60 || est.HeartSNR > 60 {
		t.Fatalf("confident vital signs on pure noise: %+v", est)
	}
}

func TestMonitorStreaming(t *testing.T) {
	const fps = 25.0
	m, err := NewMonitor(fps, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	series := syntheticVitalSeries(int(70*fps), fps, 0.3, 1.3, 5)
	var updates int
	var last Estimate
	for _, z := range series {
		if est, ok := m.Push(z); ok {
			updates++
			last = est
		}
	}
	if updates == 0 {
		t.Fatal("no streaming estimates in 70 s")
	}
	if math.Abs(last.RespirationHz-0.3) > 0.04 {
		t.Fatalf("streaming respiration %g, want 0.3", last.RespirationHz)
	}
	if got, ok := m.Last(); !ok || got != last {
		t.Fatal("Last() does not match the final update")
	}
	m.Reset()
	if _, ok := m.Last(); ok {
		t.Fatal("reset monitor retains an estimate")
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0, 30, 5); err == nil {
		t.Fatal("zero fps must be rejected")
	}
	if _, err := NewMonitor(25, 5, 5); err == nil {
		t.Fatal("short window must be rejected")
	}
	if _, err := NewMonitor(25, 30, 0); err == nil {
		t.Fatal("zero update interval must be rejected")
	}
}

// scenarioSeries is the background-subtracted face-bin series of a
// 90-s simulated capture, after the background estimate has primed.
func scenarioSeries(t testing.TB) (scenario.Spec, []complex128, float64) {
	t.Helper()
	spec := scenario.DefaultSpec()
	spec.Duration = 90
	spec.Seed = 31
	cap, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := core.PreprocessMatrix(cap.Frames)
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.SelectBinMatrix(pre)
	if err != nil {
		t.Fatal(err)
	}
	skip := int(core.BackgroundTauSec*cap.Frames.FrameRate) + 1
	return spec, pre.SlowTime(best.Bin)[skip:], cap.Frames.FrameRate
}

func TestVitalsOnScenarioCapture(t *testing.T) {
	// End to end: the subject's true respiration and heart rates must
	// be recoverable from the radar capture's face bin.
	spec, series, fps := scenarioSeries(t)
	est, err := EstimateFromSeries(series, fps)
	if err != nil {
		t.Fatal(err)
	}
	wantResp := spec.Subject.Respiration.RateHz
	if math.Abs(est.RespirationHz-wantResp) > 0.05 {
		t.Fatalf("respiration %g Hz, subject's true rate %g", est.RespirationHz, wantResp)
	}
	wantHeart := spec.Subject.Heartbeat.RateHz
	if est.HeartHz > 0 && math.Abs(est.HeartHz-wantHeart) > 0.15 {
		t.Fatalf("heart %g Hz, subject's true rate %g", est.HeartHz, wantHeart)
	}
}

// refEstimate is the allocating estimator the pooled one replaced,
// kept as the reference it must match bit for bit.
func refEstimate(series []complex128, fps float64) (Estimate, error) {
	if fps <= 0 {
		return Estimate{}, fmt.Errorf("vitals: fps must be positive, got %g", fps)
	}
	if float64(len(series)) < minWindowSec*fps {
		return Estimate{}, fmt.Errorf("vitals: need at least %.0f s of samples, got %.1f s",
			minWindowSec, float64(len(series))/fps)
	}
	c, err := iq.FitCirclePratt(series)
	if err != nil {
		return Estimate{}, fmt.Errorf("vitals: arc fit: %w", err)
	}
	angles := make([]float64, len(series))
	for i, z := range series {
		d := z - c.Center
		angles[i] = math.Atan2(imag(d), real(d))
	}
	disp := iq.Unwrap(angles)
	baseline, err := dsp.MovingAverage(disp, int(10*fps)|1)
	if err != nil {
		return Estimate{}, fmt.Errorf("vitals: detrend: %w", err)
	}
	for i := range disp {
		disp[i] -= baseline[i]
	}
	n := dsp.NextPow2(4 * len(disp))
	padded := make([]float64, n)
	hann := dsp.Hann(len(disp))
	for i := range disp {
		padded[i] = disp[i] * hann[i]
	}
	spec := dsp.FFTReal(padded)
	power := make([]float64, len(spec))
	for i, c := range spec {
		re, im := real(c), imag(c)
		power[i] = re*re + im*im
	}
	freqs := dsp.FFTFreq(n, fps)
	var est Estimate
	est.RespirationHz, est.RespirationSNR = refBandPeak(power, freqs, RespLowHz, RespHighHz, nil)
	var exclude []float64
	if est.RespirationHz > 0 {
		for h := 2.0; h <= 6; h++ {
			exclude = append(exclude, est.RespirationHz*h)
		}
	}
	est.HeartHz, est.HeartSNR = refBandPeak(power, freqs, HeartLowHz, HeartHighHz, exclude)
	return est, nil
}

func refBandPeak(power, freqs []float64, lo, hi float64, exclude []float64) (float64, float64) {
	var inBand []float64
	bestIdx := -1
	for i, f := range freqs {
		if f < lo || f > hi {
			continue
		}
		inBand = append(inBand, power[i])
		skip := false
		for _, ex := range exclude {
			if math.Abs(f-ex) < harmonicGuardHz {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if bestIdx < 0 || power[i] > power[bestIdx] {
			bestIdx = i
		}
	}
	if bestIdx < 0 || len(inBand) == 0 {
		return 0, 0
	}
	med := dsp.Median(inBand)
	if med <= 0 {
		return 0, 0
	}
	snr := power[bestIdx] / med
	if snr < 3 {
		return 0, 0
	}
	return freqs[bestIdx], snr
}

// matchesRef checks one series against the reference, errors included.
func matchesRef(t *testing.T, what string, series []complex128, fps float64) {
	t.Helper()
	got, gotErr := EstimateFromSeries(series, fps)
	want, wantErr := refEstimate(series, fps)
	if (gotErr == nil) != (wantErr == nil) || got != want {
		t.Fatalf("%s: estimate %+v (err %v), reference %+v (err %v)", what, got, gotErr, want, wantErr)
	}
}

func TestEstimatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for k := 0; k < 300; k++ {
		n := 375 + rng.Intn(1200-375+1)
		resp := 0.1 + 0.5*rng.Float64()
		heart := 0.7 + 1.5*rng.Float64()
		series := syntheticVitalSeries(n, 25, resp, heart, rng.Int63())
		if k%10 == 0 {
			// Pure noise: empty bands and rejected peaks.
			for i := range series {
				series[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
		}
		matchesRef(t, fmt.Sprintf("series %d (%d samples)", k, n), series, 25)
	}
	_, series, fps := scenarioSeries(t)
	matchesRef(t, "scenario capture", series, fps)

	// A Monitor's rolling updates match the reference over its window.
	const fps25, windowSec, updateSec = 25.0, 30.0, 5.0
	m, err := NewMonitor(fps25, windowSec, updateSec)
	if err != nil {
		t.Fatal(err)
	}
	stream := syntheticVitalSeries(int(80*fps25), fps25, 0.3, 1.25, 7)
	updates := 0
	for i, z := range stream {
		got, ok := m.Push(z)
		if !ok {
			continue
		}
		updates++
		want, err := refEstimate(stream[i+1-int(windowSec*fps25):i+1], fps25)
		if err != nil || got != want {
			t.Fatalf("monitor update at sample %d: %+v, reference %+v (err %v)", i, got, want, err)
		}
	}
	if updates < 8 {
		t.Fatalf("%d monitor updates in 80 s, want at least 8", updates)
	}
}

// BenchmarkVitalsUpdate measures one vital-sign update of a Monitor
// whose window is already full: one op is the 125 Pushes (5 s at
// 25 fps) that end in an estimate. CI holds it at 0 allocs/op.
func BenchmarkVitalsUpdate(b *testing.B) {
	const fps = 25.0
	m, err := NewMonitor(fps, 30, 5)
	if err != nil {
		b.Fatal(err)
	}
	series := syntheticVitalSeries(int(60*fps), fps, 0.3, 1.2, 9)
	k := 0
	for ; k < int(30*fps); k++ { // the last push fills the window and updates
		m.Push(series[k])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < int(5*fps); j++ {
			if _, ok := m.Push(series[k%len(series)]); ok != (j == int(5*fps)-1) {
				b.Fatalf("push %d of op %d: update %v", j, i, ok)
			}
			k++
		}
	}
}
