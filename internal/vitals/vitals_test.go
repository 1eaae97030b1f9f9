package vitals

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
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

// float32Series rounds each sample to float32 precision, as the radar
// planes carry it, so a Monitor stores the series exactly.
func float32Series(series []complex128) []complex128 {
	out := make([]complex128, len(series))
	for i, z := range series {
		out[i] = complex128(complex64(z))
	}
	return out
}

func TestMonitorStreaming(t *testing.T) {
	const fps = 25.0
	m, err := NewMonitor(fps, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	series := float32Series(syntheticVitalSeries(int(70*fps), fps, 0.3, 1.3, 5))
	for i, z := range series {
		m.Push(z)
		if _, ok := m.Last(); ok && i+1 < int(30*fps) {
			t.Fatalf("estimate after %d samples, before the 30-s window filled", i+1)
		}
	}
	got, ok := m.Last()
	if !ok {
		t.Fatal("no streaming estimate in 70 s")
	}
	if math.Abs(got.RespirationHz-0.3) > 0.04 {
		t.Fatalf("streaming respiration %g, want 0.3", got.RespirationHz)
	}
	// Updates fall at 30 s and every 5 s after, so the last one is at
	// 70 s and its window is the final 30 s.
	want, err := EstimateFromSeries(series[len(series)-int(30*fps):], fps)
	if err != nil || got != want {
		t.Fatalf("Last() = %+v, the final window's estimate %+v (err %v)", got, want, err)
	}
	if again, ok := m.Last(); !ok || again != got {
		t.Fatalf("second read %+v, first %+v", again, got)
	}
	m.Reset()
	if _, ok := m.Last(); ok {
		t.Fatal("reset monitor retains an estimate")
	}
}

func TestNewMonitorValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		fps, windowSec, updateSec float64
		names                     string // the argument the error must name
	}{
		{0, 30, 5, "fps"},
		{nan, 30, 5, "fps"},
		{inf, 30, 5, "fps"},
		{-inf, 30, 5, "fps"},
		{25, 5, 5, "window"},
		{25, nan, 5, "window"},
		{25, inf, 5, "window"},
		{25, -inf, 5, "window"},
		// 15 s at 25.3 fps is 379.5 samples, and the window holds 379.
		{25.3, 15, 5, "window"},
		{25, 30, 0, "update interval"},
		{25, 30, nan, "update interval"},
		{25, 30, inf, "update interval"},
		{25, 30, -inf, "update interval"},
		{25, 30, 0.03, "update interval"}, // shorter than one frame
		// Spans too long to allocate are refused before any sample
		// count is converted to an int.
		{25, 1e300, 5, "window"},
		{25, 1e12, 5, "window"},
		{1e300, 30, 5, "window"},
		{25, 30, 1e300, "update interval"},
		{25, 30, 1e12, "update interval"},
	} {
		m, err := NewMonitor(c.fps, c.windowSec, c.updateSec)
		if err == nil || !strings.Contains(err.Error(), c.names) {
			t.Errorf("NewMonitor(%g, %g, %g) = %v, %v; want an error naming the %s",
				c.fps, c.windowSec, c.updateSec, m, err, c.names)
		}
	}
	if _, err := NewMonitor(25, 15, 0.04); err != nil {
		t.Fatalf("a 15-s window with one-frame updates: %v", err)
	}
	if _, err := NewMonitor(1, maxSpanSamples+1, 5); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("a window one sample past the cap: %v, want an error naming the window", err)
	}
	if _, err := NewMonitor(1, 30, maxSpanSamples+1); err == nil || !strings.Contains(err.Error(), "update interval") {
		t.Fatalf("an update interval one sample past the cap: %v, want an error naming the update interval", err)
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
	bin, err := core.SelectBinMatrix(pre)
	if err != nil {
		t.Fatal(err)
	}
	skip := int(core.BackgroundTauSec*cap.Frames.FrameRate) + 1
	return spec, pre.SlowTime(bin)[skip:], cap.Frames.FrameRate
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
}

// eagerMonitor is the Monitor's oracle: it keeps every sample and runs
// EstimateFromSeries over each update's window as the update falls,
// keeping the last success.
type eagerMonitor struct {
	fps           float64
	window, every int
	samples       []complex128
	since         int
	last          Estimate
	ok            bool
	fails         int // updates whose estimate failed
}

func newEagerMonitor(fps, windowSec, updateSec float64) *eagerMonitor {
	return &eagerMonitor{fps: fps, window: int(windowSec * fps), every: int(updateSec * fps)}
}

func (e *eagerMonitor) push(z complex128) {
	e.samples = append(e.samples, z)
	e.since++
	if len(e.samples) < e.window || e.since < e.every {
		return
	}
	e.since = 0
	if est, err := EstimateFromSeries(e.samples[len(e.samples)-e.window:], e.fps); err == nil {
		e.last, e.ok = est, true
	} else {
		e.fails++
	}
}

func (e *eagerMonitor) reset() {
	e.samples, e.since, e.ok = e.samples[:0], 0, false
}

// sameEstimate compares two estimates bit for bit.
func sameEstimate(a, b Estimate) bool {
	return math.Float64bits(a.RespirationHz) == math.Float64bits(b.RespirationHz) &&
		math.Float64bits(a.HeartHz) == math.Float64bits(b.HeartHz) &&
		math.Float64bits(a.RespirationSNR) == math.Float64bits(b.RespirationSNR) &&
		math.Float64bits(a.HeartSNR) == math.Float64bits(b.HeartSNR)
}

// matchesEager fails t unless the Monitor's Last equals the oracle's.
func matchesEager(t *testing.T, what string, m *Monitor, e *eagerMonitor) {
	t.Helper()
	got, ok := m.Last()
	if ok != e.ok || (ok && !sameEstimate(got, e.last)) {
		t.Fatalf("%s: Last() = %+v, %v; eager oracle %+v, %v", what, got, ok, e.last, e.ok)
	}
}

// TestMonitorMatchesEager checks that estimating when Last reads gives
// what estimating at every update gave, read at every push, once a
// minute as an assessment reads, and only at the end of the stream.
// The stream holds a constant stretch whose windows fail the arc fit,
// and a Reset.
func TestMonitorMatchesEager(t *testing.T) {
	const fps = 25.0
	arc := float32Series(syntheticVitalSeries(int(160*fps), fps, 0.3, 1.25, 11))
	var stream []complex128
	stream = append(stream, arc[:int(40*fps)]...)
	for i := 0; i < int(40*fps); i++ {
		stream = append(stream, complex(0.5, -0.25))
	}
	stream = append(stream, arc[int(40*fps):]...)
	resetAt := int(140 * fps)

	for _, c := range []struct {
		name                 string
		windowSec, updateSec float64
		readEvery            int // pushes between reads; 0 reads only at the end
	}{
		{"read every push", 30, 5, 1},
		{"read every minute", 30, 5, int(60 * fps)},
		{"read at the end", 30, 5, 0},
		{"update slower than the window", 15, 20, int(60 * fps)},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := NewMonitor(fps, c.windowSec, c.updateSec)
			if err != nil {
				t.Fatal(err)
			}
			e := newEagerMonitor(fps, c.windowSec, c.updateSec)
			catchUps := 0 // pushes that estimated the previous update
			for i, z := range stream {
				if i == resetAt {
					m.Reset()
					e.reset()
					matchesEager(t, "after Reset", m, e)
				}
				pending := m.pending
				m.Push(z)
				e.push(z)
				if pending && !m.pending {
					catchUps++
				}
				if c.readEvery > 0 && (i+1)%c.readEvery == 0 {
					matchesEager(t, fmt.Sprintf("push %d", i), m, e)
				}
			}
			matchesEager(t, "end of stream", m, e)
			if e.fails == 0 || !e.ok {
				t.Fatalf("the stream had %d failed updates and success %v; want both", e.fails, e.ok)
			}
			if c.readEvery != 1 && catchUps == 0 {
				t.Fatal("no failed fit found an earlier update waiting to be estimated")
			}
		})
	}
}

// BenchmarkVitalsUpdate measures one vital-sign update as a session
// pays for it once the window is full: one op is the 125 Pushes (5 s at
// 25 fps) that end in an update, and the Last that estimates it. CI
// holds it at 0 allocs/op.
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
	m.Last()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < int(5*fps); j++ {
			m.Push(series[k%len(series)])
			k++
		}
		if !m.pending {
			b.Fatalf("op %d: its pushes made no update to estimate", i)
		}
		if _, ok := m.Last(); !ok {
			b.Fatalf("op %d: no estimate", i)
		}
	}
}
