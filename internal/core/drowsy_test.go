package core

import (
	"math/rand"
	"testing"
)

func TestExtractWindows(t *testing.T) {
	events := []BlinkEvent{
		{Time: 10, Duration: 0.4},
		{Time: 30, Duration: 0.6},
		{Time: 70, Duration: 0.5},
		{Time: 100, Duration: 0.1}, // below the duration gate
	}
	windows, err := ExtractWindows(events, 120, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("%d windows, want 2", len(windows))
	}
	if windows[0].BlinkRate != 2 {
		t.Fatalf("window 0 rate %g, want 2", windows[0].BlinkRate)
	}
	if windows[0].MeanBlinkDuration != 0.5 {
		t.Fatalf("window 0 mean duration %g, want 0.5", windows[0].MeanBlinkDuration)
	}
	// The 0.1 s event is gated out, leaving one event in window 1.
	if windows[1].BlinkRate != 1 {
		t.Fatalf("window 1 rate %g, want 1 (gated)", windows[1].BlinkRate)
	}
}

func TestExtractWindowsErrors(t *testing.T) {
	if _, err := ExtractWindows(nil, 60, 0); err == nil {
		t.Fatal("zero window must be rejected")
	}
}

func TestExtractWindowsUnsortedRejected(t *testing.T) {
	events := []BlinkEvent{
		{Time: 30, Duration: 0.4},
		{Time: 10, Duration: 0.4}, // out of order
	}
	if _, err := ExtractWindows(events, 120, 60); err == nil {
		t.Fatal("out-of-order events must be rejected")
	}
	// The order check covers gated-out events too: a mis-sorted slice is
	// a caller bug regardless of which events survive the gate.
	events[1].Duration = 0.01
	if _, err := ExtractWindows(events, 120, 60); err == nil {
		t.Fatal("out-of-order gated events must still be rejected")
	}
	// Equal timestamps are fine (two detections in the same frame).
	tied := []BlinkEvent{{Time: 10, Duration: 0.4}, {Time: 10, Duration: 0.5}}
	if _, err := ExtractWindows(tied, 60, 60); err != nil {
		t.Fatalf("tied timestamps must be accepted: %v", err)
	}
}

func TestExtractWindowsBoundariesAndTail(t *testing.T) {
	events := []BlinkEvent{
		{Time: 0, Duration: 0.4},  // first instant of window 0
		{Time: 60, Duration: 0.4}, // first instant of window 1, not last of window 0
		{Time: 119.9, Duration: 0.4},
		{Time: 125, Duration: 0.4}, // partial final window: dropped
	}
	windows, err := ExtractWindows(events, 130, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("%d windows, want 2 (partial tail dropped)", len(windows))
	}
	if windows[0].BlinkRate != 1 || windows[1].BlinkRate != 2 {
		t.Fatalf("rates %g, %g; want 1, 2", windows[0].BlinkRate, windows[1].BlinkRate)
	}
	// A capture shorter than one window yields no windows and no error.
	short, err := ExtractWindows(events, 30, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(short) != 0 {
		t.Fatalf("%d windows from a half-window capture, want 0", len(short))
	}
}

func TestDrowsinessModelSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mkWindows := func(rate, dur float64, n int) []WindowFeatures {
		out := make([]WindowFeatures, n)
		for i := range out {
			out[i] = WindowFeatures{
				BlinkRate:         rate + rng.NormFloat64()*1.5,
				MeanBlinkDuration: dur + rng.NormFloat64()*0.05,
			}
		}
		return out
	}
	var m DrowsinessModel
	if m.Trained() {
		t.Fatal("untrained model reports trained")
	}
	if err := m.Train(mkWindows(18, 0.25, 8), mkWindows(27, 0.55, 8)); err != nil {
		t.Fatal(err)
	}
	if !m.Trained() {
		t.Fatal("trained model reports untrained")
	}
	correct := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		awake := WindowFeatures{BlinkRate: 18 + rng.NormFloat64()*1.5, MeanBlinkDuration: 0.25 + rng.NormFloat64()*0.05}
		drowsy := WindowFeatures{BlinkRate: 27 + rng.NormFloat64()*1.5, MeanBlinkDuration: 0.55 + rng.NormFloat64()*0.05}
		if d, p, err := m.Classify(awake); err != nil {
			t.Fatal(err)
		} else if !d {
			correct++
			if p > 0.5 {
				t.Fatalf("awake classification with drowsy posterior %g", p)
			}
		}
		if d, p, err := m.Classify(drowsy); err != nil {
			t.Fatal(err)
		} else if d {
			correct++
			if p < 0.5 {
				t.Fatalf("drowsy classification with awake posterior %g", p)
			}
		}
	}
	if acc := float64(correct) / (2 * trials); acc < 0.95 {
		t.Fatalf("well-separated classes classified at %.2f, want > 0.95", acc)
	}
}

func TestDrowsinessModelWindowWithoutBlinks(t *testing.T) {
	var m DrowsinessModel
	rng := rand.New(rand.NewSource(2))
	mk := func(rate float64) []WindowFeatures {
		out := make([]WindowFeatures, 4)
		for i := range out {
			out[i] = WindowFeatures{BlinkRate: rate + rng.NormFloat64()}
		}
		return out
	}
	if err := m.Train(mk(18), mk(28)); err != nil {
		t.Fatal(err)
	}
	// Zero-duration windows (no blinks detected) must classify from
	// rate alone without error.
	if d, _, err := m.Classify(WindowFeatures{BlinkRate: 5}); err != nil || d {
		t.Fatalf("silent window classified drowsy=%v err=%v", d, err)
	}
}

func TestDrowsinessModelErrors(t *testing.T) {
	var m DrowsinessModel
	if _, _, err := m.Classify(WindowFeatures{}); err == nil {
		t.Fatal("untrained classify must fail")
	}
	if err := m.Train([]WindowFeatures{{}}, []WindowFeatures{{}, {}}); err == nil {
		t.Fatal("single-window class must be rejected")
	}
}

func TestDrowsinessModelThresholds(t *testing.T) {
	var m DrowsinessModel
	awake := []WindowFeatures{{BlinkRate: 18, MeanBlinkDuration: 0.2}, {BlinkRate: 20, MeanBlinkDuration: 0.3}}
	drowsy := []WindowFeatures{{BlinkRate: 26, MeanBlinkDuration: 0.5}, {BlinkRate: 28, MeanBlinkDuration: 0.6}}
	if err := m.Train(awake, drowsy); err != nil {
		t.Fatal(err)
	}
	ar, dr, ad, dd := m.Thresholds()
	if ar != 19 || dr != 27 {
		t.Fatalf("rate means %g/%g, want 19/27", ar, dr)
	}
	if ad != 0.25 || dd != 0.55 {
		t.Fatalf("duration means %g/%g, want 0.25/0.55", ad, dd)
	}
}
