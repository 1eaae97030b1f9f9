package blinkradar

import (
	"math"
	"reflect"
	"testing"

	"blinkradar/internal/core"
)

// windowTestMonitor builds a monitor with a short window at a
// controllable frame rate for white-box window-accounting tests.
func windowTestMonitor(t *testing.T, frameRate, windowSec float64) *Monitor {
	t.Helper()
	m, err := NewMonitor(DefaultConfig(), 16, frameRate, windowSec)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// ingestEmpty advances the monitor's window clock by n event-free
// frames, collecting any assessments produced along the way.
func ingestEmpty(t *testing.T, m *Monitor, n int) []Assessment {
	t.Helper()
	var out []Assessment
	for i := 0; i < n; i++ {
		_, _, a, err := m.ingest(BlinkEvent{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if a != nil {
			out = append(out, *a)
		}
	}
	return out
}

// blinksIn converts an assessment back to its window's blink count.
func blinksIn(a Assessment, span float64) int {
	return int(math.Round(a.Features.BlinkRate * span / 60))
}

// TestBoundaryBlinkCountedExactlyOnce is the regression test for the
// lost-boundary-blink bug: LEVD stamps events in the past (smoother
// group delay + refractory hold), so a blink delivered just after a
// window boundary carries Time < start of the new window. The old
// frame-modulo assessment had already closed the previous window, so
// the event was counted in no window at all. With lag-deferred
// assessment it lands in exactly one.
func TestBoundaryBlinkCountedExactlyOnce(t *testing.T) {
	const fps, windowSec = 10.0, 2.0
	m := windowTestMonitor(t, fps, windowSec)

	// 21 event-free frames: the frame clock is at 2.1 s, past the
	// 2.0 s boundary. With the old accounting the first window has
	// already been assessed.
	assessments := ingestEmpty(t, m, 21)

	// A blink detected around the boundary is delivered now, stamped
	// 1.95 s — inside the *first* window — and then a detection stamped
	// in the same window but shorter than the duration gate, which no
	// window may count.
	_, ok, a, err := m.ingest(BlinkEvent{Time: 1.95, Duration: 0.4, Amplitude: 1, Confidence: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("ingest dropped the delivered event")
	}
	if a != nil {
		assessments = append(assessments, *a)
	}
	if _, _, a, err = m.ingest(BlinkEvent{Time: 1.98, Duration: 0.2, Amplitude: 1, Confidence: 2}, true); err != nil {
		t.Fatal(err)
	}
	if a != nil {
		assessments = append(assessments, *a)
	}

	// Run well past both windows plus the delivery lag.
	assessments = append(assessments, ingestEmpty(t, m, 100)...)

	if len(assessments) < 2 {
		t.Fatalf("got %d assessments, want at least 2", len(assessments))
	}
	total := 0
	for _, a := range assessments {
		total += blinksIn(a, windowSec)
	}
	if total != 1 {
		t.Fatalf("boundary blink counted %d times across all windows, want exactly 1", total)
	}
	if got := blinksIn(assessments[0], windowSec); got != 1 {
		t.Fatalf("first window [0,2) counted %d blinks, want 1 (event stamped 1.95 s)", got)
	}
}

// TestLateEventClampedIntoOpenWindow covers the pathological case of an
// event delivered later than the documented lag bound: it is clamped
// into the open window rather than silently landing in a closed one. A
// late detection below the duration gate counts nowhere.
func TestLateEventClampedIntoOpenWindow(t *testing.T) {
	const fps, windowSec = 10.0, 2.0
	m := windowTestMonitor(t, fps, windowSec)

	// Advance far enough that window [0,2) is closed.
	assessments := ingestEmpty(t, m, 60)
	// Deliver an event stamped inside the long-closed first window, then
	// a sub-gate one.
	for _, ev := range []BlinkEvent{{Time: 0.5, Duration: 0.4}, {Time: 0.6, Duration: 0.2}} {
		_, _, a, err := m.ingest(ev, true)
		if err != nil {
			t.Fatal(err)
		}
		if a != nil {
			assessments = append(assessments, *a)
		}
	}
	assessments = append(assessments, ingestEmpty(t, m, 100)...)

	total := 0
	for _, a := range assessments {
		total += blinksIn(a, windowSec)
	}
	if total != 1 {
		t.Fatalf("late event counted %d times, want exactly once (clamped into the open window)", total)
	}
}

// TestWindowBoundariesExactAtNonIntegerRate is the regression test for
// the window-boundary drift bug: with windowSec*frameRate non-integer
// (60 s at 14.925 fps in the field), the old truncated frame window
// shortened every window and drifted the boundaries away from the wall
// clock while BlinkRate still divided by windowSec. Boundaries must sit
// on exact multiples of windowSec. This one drives the public Feed API.
func TestWindowBoundariesExactAtNonIntegerRate(t *testing.T) {
	const fps, windowSec = 14.925, 4.0
	m := windowTestMonitor(t, fps, windowSec)
	frame := make([]complex128, 16)

	var ends []float64
	nFrames := 30 * 15 // ~30 s of frames
	for i := 0; i < nFrames; i++ {
		_, _, a, err := m.Feed(frame)
		if err != nil {
			t.Fatal(err)
		}
		if a != nil {
			ends = append(ends, a.WindowEnd)
		}
	}
	if len(ends) < 5 {
		t.Fatalf("got %d assessments over 30 s with 4 s windows, want at least 5", len(ends))
	}
	for i, end := range ends {
		want := float64(i+1) * windowSec
		if math.Abs(end-want) > 1e-9 {
			t.Fatalf("window %d ends at %.6f s, want exactly %.6f s (boundary drift)", i, end, want)
		}
	}
}

// TestAssessErrorStillReturnsBlink is the regression test for the
// swallowed-blink bug: when the window assessment fails, the blink that
// was detected on the same frame — and already recorded — must still be
// returned to the caller alongside the error. It also covers the wedged
// window: the failure costs that window's assessment only, so later
// windows are assessed again instead of the poisoned one failing on
// every frame.
func TestAssessErrorStillReturnsBlink(t *testing.T) {
	const fps, windowSec = 10.0, 2.0
	m := windowTestMonitor(t, fps, windowSec)
	awake := []WindowFeatures{{BlinkRate: 10, MeanBlinkDuration: 0.2}, {BlinkRate: 12, MeanBlinkDuration: 0.22}}
	drowsy := []WindowFeatures{{BlinkRate: 28, MeanBlinkDuration: 0.4}, {BlinkRate: 30, MeanBlinkDuration: 0.45}}
	if err := m.Calibrate(awake, drowsy); err != nil {
		t.Fatal(err)
	}

	// Poison the first window: a NaN duration makes its features
	// non-finite, so Classify fails when the window is assessed.
	if _, _, _, err := m.ingest(BlinkEvent{Time: 0.1, Duration: math.NaN()}, true); err != nil {
		t.Fatal(err)
	}
	ingestEmpty(t, m, 30)

	// This delivery both carries a fresh blink and completes the
	// poisoned window (its stamp is past the boundary).
	in := BlinkEvent{Time: 3.1, Duration: 0.2, Amplitude: 1, Confidence: 2}
	ev, ok, _, err := m.ingest(in, true)
	if err == nil {
		t.Fatal("assessment of the poisoned window did not fail")
	}
	if !ok {
		t.Fatal("assess error swallowed the detected blink (ok=false)")
	}
	if ev != in {
		t.Fatalf("assess error returned blink %+v, want %+v", ev, in)
	}
	// 60 s of frames close about 30 two-second windows; ingestEmpty
	// fails the test on any further assessment error.
	if got := len(ingestEmpty(t, m, 600)); got < 25 {
		t.Fatalf("%d windows assessed after the poisoned one, want about 30", got)
	}
}

// TestMonitorResetRecyclesCleanly verifies the pool-recycling contract:
// Reset returns the monitor to its as-constructed state and performs no
// allocations.
func TestMonitorResetRecyclesCleanly(t *testing.T) {
	const fps, windowSec = 10.0, 2.0
	m := windowTestMonitor(t, fps, windowSec)
	if err := m.Calibrate(
		[]WindowFeatures{{BlinkRate: 10, MeanBlinkDuration: 0.2}, {BlinkRate: 12, MeanBlinkDuration: 0.25}},
		[]WindowFeatures{{BlinkRate: 28, MeanBlinkDuration: 0.4}, {BlinkRate: 30, MeanBlinkDuration: 0.5}},
	); err != nil {
		t.Fatal(err)
	}
	frame := make([]complex128, 16)
	for i := 0; i < 100; i++ {
		if _, _, _, err := m.Feed(frame); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := m.ingest(BlinkEvent{Time: 5, Duration: 0.4}, true); err != nil {
		t.Fatal(err)
	}
	// Give the vital-sign estimator an estimate, then a newer update
	// that waits for a read: Reset must drop both.
	for i := 0; i < int(35*fps); i++ {
		a := 0.4 * math.Sin(2*math.Pi*0.3*float64(i)/fps)
		m.vitals.Push(complex(1.5+1.2*math.Cos(a), -0.8+1.2*math.Sin(a)))
		if i+1 == int(30*fps) {
			if _, ok := m.vitals.Last(); !ok {
				t.Fatal("no vitals estimate from a full 30-s window")
			}
		}
	}

	m.Reset()
	if m.det.Frame() != 0 {
		t.Fatalf("detector frame count %d after Reset, want 0", m.det.Frame())
	}
	if m.tally != (core.WindowTally{}) {
		t.Fatal("the open window's blinks survived Reset")
	}
	if m.Calibrated() {
		t.Fatal("calibration survived Reset; recycled state serves a different driver")
	}
	if m.winStart != 0 || m.winEnd != windowSec {
		t.Fatalf("window boundaries [%g,%g) after Reset, want [0,%g)", m.winStart, m.winEnd, windowSec)
	}

	// Warm once (vitals/detector internal growth), then Reset must be
	// allocation-free: the pool calls it on every session attach. The
	// first assessment of the new stream must carry no vital signs from
	// the old one.
	var first *Assessment
	for i := 0; i < 200; i++ {
		_, _, a, err := m.Feed(frame)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = a
		}
	}
	if first == nil {
		t.Fatal("no assessment in the 20 s after Reset")
	}
	if first.Vitals != nil {
		t.Fatalf("the first assessment after Reset carries vitals %+v from the previous stream", *first.Vitals)
	}
	if allocs := testing.AllocsPerRun(50, m.Reset); allocs > 0 {
		t.Fatalf("Monitor.Reset allocates %.0f times per call, want 0", allocs)
	}
}

// TestMonitorResetMatchesFresh is the pool's output contract: a Monitor
// that has served one stream and been Reset must emit exactly what a
// new Monitor emits on the next. A tracker fit count that survived
// Reset once made the recycled Monitor skip the fast blend of its first
// viewing-position fits, so its distance waveform and events differed
// from the first refit after bin selection on.
func TestMonitorResetMatchesFresh(t *testing.T) {
	spec := DefaultSpec()
	spec.Subject = NewSubject(2)
	spec.Duration = 60
	spec.Seed = 5
	capture, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *Monitor) ([]BlinkEvent, []Assessment) {
		var events []BlinkEvent
		var assessments []Assessment
		for _, frame := range capture.Frames.Data {
			ev, ok, a, err := m.Feed(frame)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				events = append(events, ev)
			}
			if a != nil {
				assessments = append(assessments, *a)
			}
		}
		return events, assessments
	}
	newMonitor := func() *Monitor {
		m, err := NewMonitor(DefaultConfig(), capture.Frames.NumBins(), capture.Frames.FrameRate, 20)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	wantEvents, wantAssessments := run(newMonitor())
	if len(wantEvents) == 0 {
		t.Fatal("fresh monitor detected no blinks; the comparison would prove nothing")
	}
	recycled := newMonitor()
	run(recycled)
	recycled.Reset()
	gotEvents, gotAssessments := run(recycled)
	if len(gotEvents) != len(wantEvents) {
		t.Fatalf("recycled monitor emitted %d events, fresh one %d", len(gotEvents), len(wantEvents))
	}
	for i := range wantEvents {
		if gotEvents[i] != wantEvents[i] {
			t.Fatalf("event %d: recycled %+v, fresh %+v", i, gotEvents[i], wantEvents[i])
		}
	}
	if !reflect.DeepEqual(gotAssessments, wantAssessments) {
		t.Fatalf("recycled assessments %+v, fresh %+v", gotAssessments, wantAssessments)
	}
}

// TestMonitorWindowsMatchExtractWindows is the regression test for the
// two window rules: the Monitor counted every detection while
// ExtractWindows, whose windows calibrate the Monitor's model, skips
// those shorter than the duration gate. Every window the Monitor
// assesses must equal ExtractWindows' over the blinks it emitted.
func TestMonitorWindowsMatchExtractWindows(t *testing.T) {
	for _, c := range []struct {
		subject int
		state   State
		road    RoadType
		seed    int64
	}{
		{4, Awake, BumpyRoad, 401},
		{1, Drowsy, BumpyRoad, 101},
	} {
		spec := DefaultSpec()
		spec.Subject = NewSubject(c.subject)
		spec.State = c.state
		spec.Environment = Driving
		spec.Road = c.road
		spec.Duration = 240
		spec.Seed = c.seed
		capture, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(DefaultConfig(), capture.Frames.NumBins(), capture.Frames.FrameRate, 60)
		if err != nil {
			t.Fatal(err)
		}
		var events []BlinkEvent
		var assessed []Assessment
		for _, frame := range capture.Frames.Data {
			ev, ok, a, err := m.Feed(frame)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				events = append(events, ev)
			}
			if a != nil {
				assessed = append(assessed, *a)
			}
		}
		windows, err := ExtractWindows(events, spec.Duration, 60)
		if err != nil {
			t.Fatal(err)
		}
		if len(assessed) < 3 || len(assessed) > len(windows) {
			t.Fatalf("seed %d: %d assessments for %d offline windows", c.seed, len(assessed), len(windows))
		}
		for i, a := range assessed {
			if a.Features != windows[i] {
				t.Errorf("seed %d, window %d: Monitor %+v, ExtractWindows %+v", c.seed, i, a.Features, windows[i])
			}
		}
	}
}
