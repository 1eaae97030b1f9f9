package core

import (
	"math"
	"math/rand"
	"testing"
)

// levdForTest builds an LEVD with a small detrend/sigma setup at 25 fps.
func levdForTest(t *testing.T) *LEVD {
	t.Helper()
	l, err := NewLEVD(DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	// A clean separation floor: these tests exercise the detection
	// mechanics, not threshold statistics.
	l.minThreshold = 0.1
	return l
}

// feedWaveform pushes samples and collects emitted events.
func feedWaveform(l *LEVD, w []float64) []BlinkEvent {
	var events []BlinkEvent
	for i, v := range w {
		if ev, ok := l.Push(v, i); ok {
			events = append(events, ev)
		}
	}
	if ev, ok := l.Flush(); ok {
		events = append(events, ev)
	}
	return events
}

// syntheticWaveform builds a noisy baseline with raised-cosine bumps at
// the given frame indices.
func syntheticWaveform(n int, noise float64, bumps []int, bumpAmp float64, bumpWidth int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + rng.NormFloat64()*noise
	}
	for _, b := range bumps {
		for i := 0; i < bumpWidth; i++ {
			idx := b + i
			if idx >= n {
				break
			}
			w[idx] += bumpAmp * 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(bumpWidth)))
		}
	}
	return w
}

func TestLEVDDetectsBumps(t *testing.T) {
	l := levdForTest(t)
	bumps := []int{200, 350, 500, 700}
	w := syntheticWaveform(900, 0.004, bumps, 0.3, 8, 1)
	events := feedWaveform(l, w)
	if len(events) != len(bumps) {
		t.Fatalf("detected %d events, want %d: %+v", len(events), len(bumps), events)
	}
	for i, ev := range events {
		if math.Abs(ev.Time*25-float64(bumps[i])) > 12 {
			t.Fatalf("event %d at frame %.0f, want near %d", i, ev.Time*25, bumps[i])
		}
		if ev.Amplitude < 0.1 {
			t.Fatalf("event %d amplitude %g too small", i, ev.Amplitude)
		}
		if ev.Confidence <= 1 {
			t.Fatalf("event %d confidence %g, want > 1", i, ev.Confidence)
		}
	}
}

func TestLEVDQuietSignalNoEvents(t *testing.T) {
	l := levdForTest(t)
	w := syntheticWaveform(1500, 0.005, nil, 0, 0, 2)
	if events := feedWaveform(l, w); len(events) != 0 {
		t.Fatalf("%d false events on pure noise", len(events))
	}
}

func TestLEVDQuietSignalDefaultFloors(t *testing.T) {
	// With the production floors, pure noise at the thermal level must
	// trigger at most a stray event or two per minute.
	cfg := DefaultConfig()
	l, err := NewLEVD(cfg, 25)
	if err != nil {
		t.Fatal(err)
	}
	w := syntheticWaveform(1500, 0.002, nil, 0, 0, 2)
	events := feedWaveform(l, w)
	if len(events) > 6 {
		t.Fatalf("%d false events per minute on thermal noise", len(events))
	}
	for _, e := range events {
		if e.Confidence > 3 {
			t.Fatalf("noise event with confidence %g: downstream gating would trust it", e.Confidence)
		}
	}
}

func TestLEVDRefractoryMergesDoubleEdges(t *testing.T) {
	// One wide bump (slow closure and reopening) must yield exactly
	// one event, with a duration reflecting its extent.
	l := levdForTest(t)
	w := syntheticWaveform(800, 0.003, []int{400}, 0.4, 12, 3)
	events := feedWaveform(l, w)
	if len(events) != 1 {
		t.Fatalf("wide bump produced %d events, want 1", len(events))
	}
	if events[0].Duration < 0.3 {
		t.Fatalf("wide bump duration %g, want > 0.3 s", events[0].Duration)
	}
}

func TestLEVDDurationSeparatesWidths(t *testing.T) {
	// Drowsy-length bumps must report longer durations than short
	// awake blinks.
	short := feedWaveform(levdForTest(t), syntheticWaveform(600, 0.003, []int{300}, 0.4, 6, 4))
	long := feedWaveform(levdForTest(t), syntheticWaveform(600, 0.003, []int{300}, 0.4, 20, 4))
	if len(short) != 1 || len(long) < 1 {
		t.Fatalf("events %d/%d, want 1 and >=1", len(short), len(long))
	}
	if long[0].Duration <= short[0].Duration {
		t.Fatalf("long bump duration %g not above short %g", long[0].Duration, short[0].Duration)
	}
	// An extremely long closure may leave a low-amplitude detrend echo
	// after it; the primary detection must dominate it.
	for _, e := range long[1:] {
		if e.Amplitude > long[0].Amplitude/2 {
			t.Fatalf("echo amplitude %g rivals the primary %g", e.Amplitude, long[0].Amplitude)
		}
	}
}

func TestLEVDSigmaRobustToSparseOutliers(t *testing.T) {
	l := levdForTest(t)
	w := syntheticWaveform(1200, 0.004, []int{300, 600, 900}, 0.5, 8, 5)
	feedWaveform(l, w)
	// Sigma must reflect the noise floor, not the 0.5 bumps.
	if l.Sigma() > 0.05 {
		t.Fatalf("sigma %g inflated by blink outliers", l.Sigma())
	}
}

func TestLEVDThresholdFloors(t *testing.T) {
	l, err := NewLEVD(DefaultConfig(), 25)
	if err != nil {
		t.Fatal(err)
	}
	l.minThreshold = 0.25
	if got := l.Threshold(); got != 0.25 {
		t.Fatalf("threshold %g, want minThreshold floor 0.25", got)
	}
	l.SetFloor(0.4)
	if got := l.Threshold(); got != 0.4 {
		t.Fatalf("threshold %g, want dynamic floor 0.4", got)
	}
}

func TestLEVDFrozenSigma(t *testing.T) {
	l := levdForTest(t)
	feedWaveform(l, syntheticWaveform(600, 0.004, nil, 0, 0, 6))
	sigma := l.Sigma()
	if sigma == 0 {
		t.Fatal("sigma not primed")
	}
	l.SetFrozen(true)
	// Loud garbage must not move the frozen estimate.
	feedWaveform(l, syntheticWaveform(600, 0.5, nil, 0, 0, 7))
	if l.Sigma() != sigma {
		t.Fatalf("frozen sigma moved from %g to %g", sigma, l.Sigma())
	}
	l.SetFrozen(false)
	feedWaveform(l, syntheticWaveform(600, 0.5, nil, 0, 0, 8))
	if l.Sigma() == sigma {
		t.Fatal("unfrozen sigma should adapt")
	}
}

func TestLEVDResetSigma(t *testing.T) {
	l := levdForTest(t)
	feedWaveform(l, syntheticWaveform(600, 0.004, nil, 0, 0, 9))
	if l.Sigma() == 0 {
		t.Fatal("sigma not primed")
	}
	l.ResetSigma()
	if l.Sigma() != 0 {
		t.Fatal("ResetSigma must clear the estimate")
	}
}

func TestLEVDFlushPending(t *testing.T) {
	// A bump right at the stream end must still come out via Flush.
	l := levdForTest(t)
	w := syntheticWaveform(520, 0.003, []int{500}, 0.4, 8, 10)
	var live int
	for i, v := range w {
		if _, ok := l.Push(v, i); ok {
			live++
		}
	}
	if _, ok := l.Flush(); !ok && live == 0 {
		t.Fatal("trailing bump lost: neither emitted nor flushed")
	}
	// Flush is idempotent.
	if _, ok := l.Flush(); ok {
		t.Fatal("second flush must be empty")
	}
}

func TestLEVDTimestampAtOnset(t *testing.T) {
	l := levdForTest(t)
	const bumpAt = 400
	w := syntheticWaveform(700, 0.002, []int{bumpAt}, 0.5, 10, 11)
	events := feedWaveform(l, w)
	if len(events) != 1 {
		t.Fatalf("%d events, want 1", len(events))
	}
	// The event timestamp must sit at the bump onset, not its tail.
	if f := events[0].Time * 25; f < bumpAt-8 || f > bumpAt+10 {
		t.Fatalf("event frame %.0f, want near onset %d", f, bumpAt)
	}
}

func TestNewLEVDErrors(t *testing.T) {
	if _, err := NewLEVD(DefaultConfig(), 0); err == nil {
		t.Fatal("zero fps must be rejected")
	}
	bad := DefaultConfig()
	bad.ThresholdK = -1
	if _, err := NewLEVD(bad, 25); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}
