package blinkradar_test

import (
	"math"
	"strings"
	"testing"

	"blinkradar"
)

// TestPublicAPIEndToEnd exercises the documented quickstart flow through
// the public facade only.
func TestPublicAPIEndToEnd(t *testing.T) {
	spec := blinkradar.DefaultSpec()
	spec.Subject = blinkradar.NewSubject(2)
	spec.Duration = 60
	spec.Seed = 7

	capture, err := blinkradar.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	events, det, err := blinkradar.Detect(blinkradar.DefaultConfig(), capture.Frames)
	if err != nil {
		t.Fatal(err)
	}
	if det.Bin() < 0 {
		t.Fatal("no bin selected")
	}
	truth := blinkradar.TrimWarmup(capture.Truth, blinkradar.DefaultWarmup)
	m := blinkradar.Match(truth, events, 0)
	if m.Accuracy() < 0.6 {
		t.Fatalf("public-API accuracy %.2f unexpectedly low", m.Accuracy())
	}
}

func TestPublicConstants(t *testing.T) {
	if blinkradar.Awake.String() != "awake" || blinkradar.Drowsy.String() != "drowsy" {
		t.Fatal("state aliases broken")
	}
	if blinkradar.Lab.String() != "lab" || blinkradar.Driving.String() != "driving" {
		t.Fatal("environment aliases broken")
	}
	if blinkradar.BumpyRoad.String() != "bumpy" {
		t.Fatal("road aliases broken")
	}
	if blinkradar.Sunglasses.Attenuation() >= blinkradar.NoGlasses.Attenuation() {
		t.Fatal("glasses aliases broken")
	}
}

func TestMonitorLifecycle(t *testing.T) {
	spec := blinkradar.DefaultSpec()
	spec.Subject = blinkradar.NewSubject(3)
	spec.Environment = blinkradar.Driving
	spec.Duration = 150
	spec.Seed = 9
	capture, err := blinkradar.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), capture.Frames.NumBins(), capture.Frames.FrameRate, 60)
	if err != nil {
		t.Fatal(err)
	}
	if monitor.Calibrated() {
		t.Fatal("fresh monitor reports calibrated")
	}

	var blinks int
	var assessments []blinkradar.Assessment
	for _, frame := range capture.Frames.Data {
		ev, ok, a, err := monitor.Feed(frame)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			blinks++
			if ev.Time < 0 {
				t.Fatal("negative event time")
			}
		}
		if a != nil {
			assessments = append(assessments, *a)
		}
	}
	if blinks == 0 {
		t.Fatal("monitor detected no blinks over 2.5 minutes")
	}
	if len(assessments) != 2 {
		t.Fatalf("%d assessments over 150 s with 60 s windows, want 2", len(assessments))
	}
	for _, a := range assessments {
		if a.Calibrated {
			t.Fatal("uncalibrated monitor produced calibrated assessments")
		}
		if a.Posterior != 0.5 {
			t.Fatalf("uncalibrated posterior %g, want 0.5", a.Posterior)
		}
	}
	// The second window's blink rate must be plausible for an awake
	// driver pipeline (detections plus a tolerable false-positive rate).
	rate := assessments[1].Features.BlinkRate
	if rate <= 0 || rate > 60 {
		t.Fatalf("window blink rate %g implausible", rate)
	}
}

func TestMonitorCalibrationFlow(t *testing.T) {
	mk := func(rate, dur float64, n int) []blinkradar.WindowFeatures {
		out := make([]blinkradar.WindowFeatures, n)
		for i := range out {
			out[i] = blinkradar.WindowFeatures{
				BlinkRate:         rate + float64(i%3) - 1,
				MeanBlinkDuration: dur,
			}
		}
		return out
	}
	monitor, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), 150, 25, 60)
	if err != nil {
		t.Fatal(err)
	}
	if err := monitor.Calibrate(mk(18, 0.25, 4), mk(28, 0.55, 4)); err != nil {
		t.Fatal(err)
	}
	if !monitor.Calibrated() {
		t.Fatal("calibration did not take")
	}
}

func TestNewMonitorValidation(t *testing.T) {
	if _, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), 150, 25, 60); err != nil {
		t.Fatal(err)
	}
	// A NaN or infinite window never closes, so it would never be
	// assessed.
	for _, span := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), 150, 25, span); err == nil {
			t.Errorf("NewMonitor accepted a %g-s window", span)
		}
	}
	if _, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), 0, 25, 60); err == nil {
		t.Fatal("zero bins must be rejected")
	}
	for _, fps := range []float64{0, math.NaN(), math.Inf(1)} {
		if _, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), 150, fps, 60); err == nil ||
			!strings.Contains(err.Error(), "frame rate") {
			t.Errorf("NewMonitor at %g fps: %v, want an error naming the frame rate", fps, err)
		}
	}
}

func TestDeterministicPublicPipeline(t *testing.T) {
	run := func() []blinkradar.BlinkEvent {
		spec := blinkradar.DefaultSpec()
		spec.Duration = 40
		spec.Seed = 5
		capture, err := blinkradar.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		events, _, err := blinkradar.Detect(blinkradar.DefaultConfig(), capture.Frames)
		if err != nil {
			t.Fatal(err)
		}
		return events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event counts %d vs %d", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Time-b[i].Time) > 1e-12 {
			t.Fatalf("event %d times differ", i)
		}
	}
}

func TestMonitorSurfacesVitals(t *testing.T) {
	spec := blinkradar.DefaultSpec()
	spec.Subject = blinkradar.NewSubject(12)
	spec.Duration = 120
	spec.Seed = 21
	capture, err := blinkradar.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	monitor, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), capture.Frames.NumBins(), capture.Frames.FrameRate, 60)
	if err != nil {
		t.Fatal(err)
	}
	var last *blinkradar.Assessment
	for _, frame := range capture.Frames.Data {
		_, _, a, err := monitor.Feed(frame)
		if err != nil {
			t.Fatal(err)
		}
		if a != nil {
			last = a
		}
	}
	if last == nil {
		t.Fatal("no assessments over 2 minutes")
	}
	if last.Vitals == nil {
		t.Fatal("assessment carries no vital signs after a full window")
	}
	wantResp := spec.Subject.Respiration.RateHz * 60
	if got := last.Vitals.RespirationBPM(); math.Abs(got-wantResp) > 4 {
		t.Fatalf("monitor respiration %.1f bpm, subject's true rate %.1f", got, wantResp)
	}
}
