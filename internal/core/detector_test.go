package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"blinkradar/internal/obs"
	"blinkradar/internal/rf"
)

// syntheticCapture builds a frame matrix with one arc-tracing "face"
// bin carrying blink bumps, plus static clutter and noise — a minimal
// stand-in for the scenario package that keeps core tests free of the
// scenario dependency.
func syntheticCapture(t *testing.T, frames int, blinkFrames []int, seed int64) (*rf.FrameMatrix, int) {
	t.Helper()
	const bins = 40
	const faceBin = 20
	m, err := rf.NewFrameMatrix(frames, bins, 25, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	inBlink := func(k int) float64 {
		for _, b := range blinkFrames {
			if k >= b && k < b+6 {
				// Raised-cosine closure.
				return 0.5 * (1 - math.Cos(2*math.Pi*float64(k-b)/6))
			}
		}
		return 0
	}
	for k := 0; k < frames; k++ {
		tt := float64(k) / 25
		row := m.Data[k]
		// Static clutter across a few bins.
		row[3] += 1.5
		row[30] += complex(0.8, -0.6)
		// Face return: arc rotation from vital signs plus the blink's
		// amplitude-and-phase excursion.
		arc := 0.3*math.Sin(2*math.Pi*0.25*tt) + 0.1*math.Sin(2*math.Pi*1.2*tt)
		c := inBlink(k)
		amp := 1.4 + 0.35*c
		phase := arc + 0.8*c
		row[faceBin] += cmplx.Rect(amp, phase)
		// Thermal noise everywhere.
		for b := range row {
			row[b] += complex(rng.NormFloat64()*0.004, rng.NormFloat64()*0.004)
		}
	}
	return m, faceBin
}

func TestDetectorEndToEndSynthetic(t *testing.T) {
	blinks := []int{500, 600, 700, 820, 950, 1100, 1250, 1400}
	m, faceBin := syntheticCapture(t, 1500, blinks, 1)
	events, det, err := Detect(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if got := det.Bin(); got < faceBin-2 || got > faceBin+2 {
		t.Fatalf("selected bin %d, want near %d", got, faceBin)
	}
	// Every injected blink after warm-up must be detected within 0.5 s.
	detected := 0
	for _, b := range blinks {
		want := float64(b) / 25
		for _, e := range events {
			if math.Abs(e.Time-want) < 0.5 {
				detected++
				break
			}
		}
	}
	if detected < len(blinks)-1 {
		t.Fatalf("detected %d of %d injected blinks: %+v", detected, len(blinks), events)
	}
	if det.Frame() != 1500 {
		t.Fatalf("frame counter %d", det.Frame())
	}
}

func TestDetectorQuietScene(t *testing.T) {
	m, _ := syntheticCapture(t, 1200, nil, 2)
	events, _, err := Detect(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) > 3 {
		t.Fatalf("%d false detections on a blink-free scene", len(events))
	}
}

func TestDetectorFeedValidation(t *testing.T) {
	det, err := NewDetector(DefaultConfig(), 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := det.Feed(make([]complex128, 39)); err == nil {
		t.Fatal("wrong frame width must be rejected")
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(DefaultConfig(), 4, 25); err == nil {
		t.Fatal("fewer bins than guard must be rejected")
	}
	if _, err := NewDetector(DefaultConfig(), 40, 0); err == nil {
		t.Fatal("zero frame rate must be rejected")
	}
	bad := DefaultConfig()
	bad.ThresholdK = 0
	if _, err := NewDetector(bad, 40, 25); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

// TestConstructorsRejectBadFrameRate: NaN and +Inf pass a plain
// `fps <= 0` check, and a finite rate past maxFrameRate would size
// windows no memory holds (or overflow the int conversion of a span),
// so each constructor must refuse them, as well as 0 and -Inf, with an
// error that names the frame rate. The cap itself is accepted.
func TestConstructorsRejectBadFrameRate(t *testing.T) {
	bad := []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), maxFrameRate + 1, 1e12, 1e19, 1e300}
	for _, fps := range bad {
		_, errDet := NewDetector(DefaultConfig(), 40, fps)
		_, errPre := NewPreprocessor(DefaultConfig(), 40, fps)
		_, errLEVD := NewLEVD(DefaultConfig(), fps)
		for _, c := range []struct {
			name string
			err  error
		}{{"NewDetector", errDet}, {"NewPreprocessor", errPre}, {"NewLEVD", errLEVD}} {
			if c.err == nil || !strings.Contains(c.err.Error(), "frame rate") {
				t.Errorf("%s at %g fps: %v, want an error naming the frame rate", c.name, fps, c.err)
			}
		}
	}
	if _, err := NewDetector(DefaultConfig(), 40, maxFrameRate); err != nil {
		t.Errorf("NewDetector at the %d-fps cap: %v", maxFrameRate, err)
	}
}

// TestConcurrentDetectorsShareSelectionScratch runs detectors over
// distinct captures on separate goroutines, two per capture, all
// borrowing selection scratch from the one package pool, as each
// goroutine's offline SelectBinMatrix over its whole capture does too,
// and checks that each emits exactly what it emits alone. Under -race,
// a scratch lent to two selection passes at once shows as a data race;
// without it, as changed events or bins. The captures differ in width,
// so the pooled buffers change size from one pass to the next.
func TestConcurrentDetectorsShareSelectionScratch(t *testing.T) {
	const captures, frames = 4, 1200
	type run struct {
		events     []BlinkEvent
		selections uint64 // cold-start selections and reselections
		offline    int    // SelectBinMatrix over the whole capture
	}
	feed := func(m *rf.FrameMatrix, bins int) (run, error) {
		det, err := NewDetector(DefaultConfig(), bins, m.FrameRate)
		if err != nil {
			return run{}, err
		}
		det.SetRegistry(obs.NewRegistry())
		var r run
		pre, err := PreprocessMatrix(m)
		if err != nil {
			return run{}, err
		}
		if r.offline, err = SelectBinMatrix(pre); err != nil {
			return run{}, err
		}
		for _, row := range m.Data {
			ev, ok, err := det.Feed(row[:bins])
			if err != nil {
				return run{}, err
			}
			if ok {
				r.events = append(r.events, ev)
			}
		}
		r.selections = det.mStageSelect.Count()
		return r, nil
	}
	caps := make([]*rf.FrameMatrix, captures)
	bins := make([]int, captures)
	serial := make([]run, captures)
	// One cold-start selection, then one reselection every interval.
	minSelections := uint64(1 + (frames-ColdStartFrames)/DefaultConfig().ReselectIntervalFrames)
	for i := range caps {
		caps[i], _ = syntheticCapture(t, frames, []int{300 + 40*i, 520, 760 + 30*i, 1000}, int64(20+i))
		bins[i] = 40 - 4*i
		r, err := feed(caps[i], bins[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(r.events) == 0 || r.selections < minSelections {
			t.Fatalf("capture %d alone: %d events, %d selection passes; want events and at least %d passes",
				i, len(r.events), r.selections, minSelections)
		}
		serial[i] = r
	}
	got := make([]run, 2*captures)
	errs := make([]error, 2*captures)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = feed(caps[g%captures], bins[g%captures])
		}()
	}
	wg.Wait()
	for g, r := range got {
		i := g % captures
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !slices.Equal(r.events, serial[i].events) || r.selections != serial[i].selections {
			t.Fatalf("goroutine %d on capture %d: %d events over %d selection passes %v, alone %d over %d %v",
				g, i, len(r.events), r.selections, r.events, len(serial[i].events), serial[i].selections, serial[i].events)
		}
		if r.offline != serial[i].offline {
			t.Fatalf("goroutine %d on capture %d: SelectBinMatrix picked bin %d, alone %d", g, i, r.offline, serial[i].offline)
		}
	}
}

func TestDetectorTrace(t *testing.T) {
	m, _ := syntheticCapture(t, 600, []int{400}, 3)
	det, err := NewDetector(DefaultConfig(), m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	det.EnableTrace()
	for _, frame := range m.Data {
		if _, _, err := det.Feed(frame); err != nil {
			t.Fatal(err)
		}
	}
	dist, thr := det.Trace()
	if len(dist) != 600 || len(thr) != 600 {
		t.Fatalf("trace lengths %d/%d, want 600", len(dist), len(thr))
	}
	// The tail of the trace must carry real distances.
	if dist[590] == 0 {
		t.Fatal("trace tail is empty")
	}
}

func TestDetectorBinBeforeSelection(t *testing.T) {
	det, err := NewDetector(DefaultConfig(), 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	if det.Bin() != -1 {
		t.Fatalf("bin before selection %d, want -1", det.Bin())
	}
}

func TestDetectorInputNotRetained(t *testing.T) {
	det, err := NewDetector(DefaultConfig(), 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]complex128, 40)
	frame[5] = 1 + 1i
	if _, _, err := det.Feed(frame); err != nil {
		t.Fatal(err)
	}
	if frame[5] != 1+1i {
		t.Fatal("Feed modified the caller's frame")
	}
}

func TestDetectOfflineMatchesStreaming(t *testing.T) {
	m, _ := syntheticCapture(t, 900, []int{500, 700}, 4)
	offline, _, err := Detect(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(DefaultConfig(), m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []BlinkEvent
	for _, frame := range m.Data {
		if ev, ok, err := det.Feed(frame); err != nil {
			t.Fatal(err)
		} else if ok {
			streamed = append(streamed, ev)
		}
	}
	if ev, ok := det.Flush(); ok {
		streamed = append(streamed, ev)
	}
	if len(offline) != len(streamed) {
		t.Fatalf("offline %d events, streaming %d", len(offline), len(streamed))
	}
	for i := range offline {
		if offline[i] != streamed[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, offline[i], streamed[i])
		}
	}
}

func TestMotionRestartPathAllocFree(t *testing.T) {
	// The motion-restart gate runs the running median on every frame
	// once its two-second window fills; the old batch median copied the
	// buffer per frame, so this path specifically must stay at 0
	// allocs/frame, not just the pre-warmup frames other tests hit.
	m, _ := syntheticCapture(t, 600, nil, 7)
	cfg := DefaultConfig()
	// Keep periodic reselection (which walks candidate windows) out of
	// the measured frames so a single allocating frame can't hide in
	// the AllocsPerRun average.
	cfg.ReselectIntervalFrames = 1 << 30
	det, err := NewDetector(cfg, m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	warm := ColdStartFrames + int(m.FrameRate*2) + 2
	for k := 0; k < warm; k++ {
		if _, _, err := det.Feed(m.Data[k]); err != nil {
			t.Fatal(err)
		}
	}
	if det.med.Count() < int(m.FrameRate*2)+1 {
		t.Fatalf("median window not full after %d frames: %d samples",
			warm, det.med.Count())
	}
	next := warm
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := det.Feed(m.Data[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("motion-median frames allocate %g times/frame, want 0", allocs)
	}
}

func TestTail(t *testing.T) {
	s := []complex128{1, 2, 3}
	if got := tail(s, 2); len(got) != 2 || got[0] != 2 {
		t.Fatalf("tail %v", got)
	}
	if got := tail(s, 5); len(got) != 3 {
		t.Fatalf("overlong tail %v", got)
	}
}

// TestDetectorRecoversFromPostureJump injects a large mid-capture step
// in the face geometry (bin shift plus amplitude change) and verifies
// the adaptive machinery — reselection or restart — recovers detection
// on the far side.
func TestDetectorRecoversFromPostureJump(t *testing.T) {
	const bins = 40
	const fps = 25.0
	frames := 3000
	m, err := rf.NewFrameMatrix(frames, bins, fps, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	blinkFrames := []int{500, 700, 900, 2200, 2400, 2600, 2800}
	inBlink := func(k int) float64 {
		for _, b := range blinkFrames {
			if k >= b && k < b+6 {
				return 0.5 * (1 - math.Cos(2*math.Pi*float64(k-b)/6))
			}
		}
		return 0
	}
	for k := 0; k < frames; k++ {
		tt := float64(k) / fps
		row := m.Data[k]
		row[3] += 1.5
		// The face sits at bin 18 for the first minute, then jumps
		// five bins deeper (a seat-position change).
		faceBin := 18
		if k >= 1500 {
			faceBin = 23
		}
		arc := 0.3*math.Sin(2*math.Pi*0.25*tt) + 0.1*math.Sin(2*math.Pi*1.2*tt)
		c := inBlink(k)
		row[faceBin] += cmplx.Rect(1.4+0.35*c, arc+0.8*c)
		for b := range row {
			row[b] += complex(rng.NormFloat64()*0.004, rng.NormFloat64()*0.004)
		}
	}
	events, det, err := Detect(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if det.Restarts()+det.BinSwitches() == 0 {
		t.Fatal("no adaptive response to a five-bin posture jump")
	}
	// Detection must work after the jump (allow the re-acquisition
	// window to eat the first post-jump blink).
	late := 0
	for _, b := range blinkFrames[3:] {
		want := float64(b) / fps
		for _, e := range events {
			if math.Abs(e.Time-want) < 0.5 {
				late++
				break
			}
		}
	}
	if late < 3 {
		t.Fatalf("only %d of 4 post-jump blinks detected (restarts=%d switches=%d)",
			late, det.Restarts(), det.BinSwitches())
	}
	if got := det.Bin(); got < 21 || got > 25 {
		t.Fatalf("tracker ended on bin %d, want near the new face bin 23", got)
	}
}

// TestDetectorCurrentSample verifies the vital-sign tap.
func TestDetectorCurrentSample(t *testing.T) {
	det, err := NewDetector(DefaultConfig(), 40, 25)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := det.CurrentSample(); ok {
		t.Fatal("sample available before bin selection")
	}
	m, _ := syntheticCapture(t, 200, nil, 8)
	for _, frame := range m.Data {
		if _, _, err := det.Feed(frame); err != nil {
			t.Fatal(err)
		}
	}
	if _, bin, ok := det.CurrentSample(); !ok || bin != det.Bin() {
		t.Fatalf("current sample (bin %d, ok %v) inconsistent with Bin() %d", bin, ok, det.Bin())
	}
}
