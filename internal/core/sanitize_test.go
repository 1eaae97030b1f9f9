package core

import (
	"math"
	"math/cmplx"
	"testing"

	"blinkradar/internal/obs"
)

// feedClean runs n frames of the synthetic capture through det starting
// at frame offset, failing the test on any Feed error.
func feedClean(t *testing.T, det *Detector, data [][]complex128, from, n int) {
	t.Helper()
	for k := from; k < from+n; k++ {
		if _, _, err := det.Feed(data[k]); err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
	}
}

func TestDetectorRepairsSparseNonFinite(t *testing.T) {
	m, faceBin := syntheticCapture(t, 400, []int{200}, 11)
	det, err := NewDetector(DefaultConfig(), m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	// Establish tracking on clean frames first.
	feedClean(t, det, m.Data, 0, 150)
	if det.Health() != HealthTracking {
		t.Fatalf("health %s after clean warmup, want tracking", det.Health())
	}
	// Poison a handful of bins per frame — NaN and both infinities —
	// staying under maxBadBinFrac so each frame is repaired, not
	// rejected. The detector must keep tracking straight through.
	for k := 150; k < 250; k++ {
		frame := append([]complex128(nil), m.Data[k]...)
		frame[2] = complex(math.NaN(), 0)
		frame[7] = complex(0, math.Inf(1))
		frame[11] = complex(math.Inf(-1), math.NaN())
		if _, _, err := det.Feed(frame); err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
	}
	in := det.InputStats()
	if in.Rejected != 0 {
		t.Fatalf("%d frames rejected, want 0 (sparse damage is repairable)", in.Rejected)
	}
	if want := uint64(3 * 100); in.RepairedBins != want {
		t.Fatalf("%d bins repaired, want %d", in.RepairedBins, want)
	}
	if det.Health() != HealthTracking {
		t.Fatalf("health %s after repairable damage, want tracking", det.Health())
	}
	if got := det.Bin(); got != faceBin {
		t.Fatalf("tracking bin %d after repairs, want %d", got, faceBin)
	}
}

func TestDetectorRejectsNonFiniteFlood(t *testing.T) {
	m, _ := syntheticCapture(t, 400, nil, 12)
	cfg := DefaultConfig()
	det, err := NewDetector(cfg, m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	feedClean(t, det, m.Data, 0, 100)
	frameBefore := det.Frame()
	// A frame where every bin is non-finite is unsalvageable.
	poison := make([]complex128, m.NumBins())
	for i := range poison {
		poison[i] = complex(math.NaN(), math.Inf(1))
	}
	for i := 0; i < 5; i++ {
		ev, ok, err := det.Feed(poison)
		if err != nil {
			t.Fatalf("rejected frame must not error: %v", err)
		}
		if ok {
			t.Fatalf("rejected frame produced blink event %+v", ev)
		}
	}
	in := det.InputStats()
	if in.Rejected != 5 {
		t.Fatalf("%d frames rejected, want 5", in.Rejected)
	}
	if det.Frame() != frameBefore+5 {
		t.Fatalf("slow-time clock at %d after 5 rejected frames from %d: rejected frames keep their slots", det.Frame(), frameBefore)
	}
	// A short reject run bridges: clean frames resume tracking and the
	// consecutive-reject counter rearms.
	feedClean(t, det, m.Data, 100, 50)
	if det.Health() != HealthTracking {
		t.Fatalf("health %s after short reject run, want tracking", det.Health())
	}
	if got := det.InputStats().GapResets; got != 0 {
		t.Fatalf("%d gap resets after a 5-frame reject run, want 0", got)
	}
}

// TestRejectedBurstKeepsEventClock feeds a capture with a 40-frame
// burst of unsalvageable frames, short enough to bridge, and checks
// that each blink after it is stamped at its own time: rejected frames
// keep their slots in slow time, as they do on a Monitor's window
// clock, so later events are not stamped early by the burst's length.
// The burst covers a multiple of ReselectIntervalFrames, and that
// interval's reselection still runs, once.
func TestRejectedBurstKeepsEventClock(t *testing.T) {
	const frames, burstFrom, burstLen = 1300, 600, 40
	blinks := []int{300, 450, 700, 850, 1000, 1150}
	m, _ := syntheticCapture(t, frames, blinks, 7)
	cfg := DefaultConfig()
	det, err := NewDetector(cfg, m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	det.SetRegistry(obs.NewRegistry())
	poison := make([]complex128, m.NumBins())
	for i := range poison {
		poison[i] = complex(math.NaN(), 0)
	}
	var events []BlinkEvent
	for k, row := range m.Data {
		if k >= burstFrom && k < burstFrom+burstLen {
			row = poison
		}
		ev, ok, err := det.Feed(row)
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		if ok {
			events = append(events, ev)
		}
	}
	if in := det.InputStats(); in.Rejected != burstLen || in.GapResets != 0 {
		t.Fatalf("input stats %+v, want %d rejected frames bridged without a reset", in, burstLen)
	}
	if det.Frame() != frames {
		t.Fatalf("slow-time clock at %d after %d frames fed", det.Frame(), frames)
	}
	for _, b := range blinks {
		if b < burstFrom {
			continue
		}
		want := float64(b) / m.FrameRate
		found := false
		for _, ev := range events {
			if math.Abs(ev.Time-want) <= 0.5 {
				found = true
			}
		}
		if !found {
			t.Errorf("blink at %.2f s after the burst: no event within 0.5 s, events %+v", want, events)
		}
	}
	// One cold-start selection, then one reselection per interval.
	want := uint64(1 + det.Restarts() + frames/cfg.ReselectIntervalFrames)
	if got := det.mStageSelect.Count(); got != want {
		t.Fatalf("%d selection passes, want %d", got, want)
	}
}

func TestDetectorDegradedEntryAndExit(t *testing.T) {
	m, _ := syntheticCapture(t, 600, nil, 13)
	cfg := DefaultConfig()
	det, err := NewDetector(cfg, m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	feedClean(t, det, m.Data, 0, 150)
	if det.Health() != HealthTracking {
		t.Fatalf("health %s after warmup, want tracking", det.Health())
	}
	poison := make([]complex128, m.NumBins())
	for i := range poison {
		poison[i] = complex(math.NaN(), 0)
	}
	for i := 0; i < degradedAfterRejects+maxGapFrames+5; i++ {
		if _, _, err := det.Feed(poison); err != nil {
			t.Fatal(err)
		}
		if i+1 == degradedAfterRejects && det.Health() != HealthDegraded {
			t.Fatalf("health %s after %d rejects, want degraded", det.Health(), i+1)
		}
	}
	// The run crossed both thresholds: degradedAfterRejects flagged the
	// stream, and maxGapFrames forced re-acquisition (Degraded outranks
	// the transient Reacquiring state, so the reset is visible only in
	// the counter).
	if det.Health() != HealthDegraded {
		t.Fatalf("health %s after sustained poison, want degraded", det.Health())
	}
	if got := det.InputStats().GapResets; got != 1 {
		t.Fatalf("%d gap resets, want 1", got)
	}
	// First clean frame exits Degraded; tracking state was discarded, so
	// the detector is re-acquiring, and a full cold-start window of
	// clean frames brings it back to Tracking.
	if _, _, err := det.Feed(m.Data[150]); err != nil {
		t.Fatal(err)
	}
	if det.Health() != HealthReacquiring {
		t.Fatalf("health %s after first clean frame, want reacquiring", det.Health())
	}
	feedClean(t, det, m.Data, 151, ColdStartFrames+10)
	if det.Health() != HealthTracking {
		t.Fatalf("health %s after recovery window, want tracking", det.Health())
	}
}

func TestDetectorDegradedBeforeFirstSelection(t *testing.T) {
	// A stream that is broken from the very first frame must degrade
	// and, once clean input appears, fall back to Acquiring — there is
	// no previous bin to re-acquire.
	cfg := DefaultConfig()
	det, err := NewDetector(cfg, 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	poison := make([]complex128, 40)
	for i := range poison {
		poison[i] = complex(math.Inf(1), math.NaN())
	}
	for i := 0; i < degradedAfterRejects+maxGapFrames+5; i++ {
		if _, _, err := det.Feed(poison); err != nil {
			t.Fatal(err)
		}
	}
	if det.Health() != HealthDegraded {
		t.Fatalf("health %s, want degraded", det.Health())
	}
	if _, _, err := det.Feed(make([]complex128, 40)); err != nil {
		t.Fatal(err)
	}
	if det.Health() != HealthAcquiring {
		t.Fatalf("health %s after first clean frame, want acquiring (never selected)", det.Health())
	}
}

func TestDetectorAllZeroFrames(t *testing.T) {
	// An all-zero stream (radio muted, cable pulled at the ADC) must be
	// digested without panics, errors, spurious blinks, or non-finite
	// internal state — zeros are finite and therefore valid input.
	cfg := DefaultConfig()
	det, err := NewDetector(cfg, 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	zero := make([]complex128, 40)
	for i := 0; i < ColdStartFrames*3; i++ {
		ev, ok, err := det.Feed(zero)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ok {
			t.Fatalf("frame %d: blink %+v from an all-zero stream", i, ev)
		}
	}
	in := det.InputStats()
	if in.Rejected != 0 || in.RepairedBins != 0 {
		t.Fatalf("zero frames mis-sanitized: %+v", in)
	}
	if det.Health() == HealthDegraded {
		t.Fatal("all-zero input is valid and must not degrade the stream")
	}
	if z, _, ok := det.CurrentSample(); ok && (cmplx.IsNaN(z) || cmplx.IsInf(z)) {
		t.Fatalf("non-finite internal sample %v on zero input", z)
	}
}

func TestDetectorSaturationClamp(t *testing.T) {
	m, _ := syntheticCapture(t, 300, nil, 14)
	cfg := DefaultConfig()
	cfg.SaturationLimit = 2.0 // the synthetic face return peaks below this
	det, err := NewDetector(cfg, m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	feedClean(t, det, m.Data, 0, 150)
	if got := det.InputStats().ClampedBins; got != 0 {
		t.Fatalf("%d bins clamped on an in-range capture, want 0", got)
	}
	// Rail one bin far past the limit on both components.
	for k := 150; k < 170; k++ {
		frame := append([]complex128(nil), m.Data[k]...)
		frame[5] = complex(1e9, -1e9)
		if _, _, err := det.Feed(frame); err != nil {
			t.Fatal(err)
		}
	}
	in := det.InputStats()
	if in.ClampedBins != 20 {
		t.Fatalf("%d bins clamped, want 20", in.ClampedBins)
	}
	if in.Rejected != 0 {
		t.Fatalf("%d frames rejected, want 0 (saturation is repaired, not fatal)", in.Rejected)
	}
	if det.Health() != HealthTracking {
		t.Fatalf("health %s through saturation, want tracking", det.Health())
	}
	// The clamp must actually bound what enters the pipeline: the last
	// accepted copy of the railed bin sits at the limit.
	if got := cmplx.Abs(det.lastGood.At(5)); got > cfg.SaturationLimit*math.Sqrt2+1e-9 {
		t.Fatalf("railed bin entered pipeline at magnitude %g, limit %g", got, cfg.SaturationLimit)
	}
}

func TestHealthStateString(t *testing.T) {
	want := map[HealthState]string{
		HealthAcquiring:   "acquiring",
		HealthTracking:    "tracking",
		HealthReacquiring: "reacquiring",
		HealthDegraded:    "degraded",
		HealthState(99):   "unknown",
	}
	for h, s := range want {
		if h.String() != s {
			t.Fatalf("HealthState(%d).String() = %q, want %q", h, h.String(), s)
		}
	}
}
