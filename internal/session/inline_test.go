package session

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"blinkradar"
	"blinkradar/internal/iq"
	"blinkradar/internal/scenario"
)

// blinkFrames is a 30-s simulated lab capture (150 bins, 25 fps) as I/Q
// planes: enough frames past cold start for the subject to blink.
var blinkFrames = sync.OnceValues(func() ([]iq.Planes32, error) {
	spec := scenario.DefaultSpec()
	spec.Duration = 30
	spec.Seed = 19
	c, err := scenario.Generate(spec)
	if err != nil {
		return nil, err
	}
	frames := make([]iq.Planes32, len(c.Frames.Data))
	for k, row := range c.Frames.Data {
		frames[k] = iq.MakePlanes32(len(row))
		frames[k].FromComplex(row)
	}
	return frames, nil
})

// inlineEnv is a one-shard manager on a fake clock whose OnBlink
// records every event with the goroutine that delivered it.
type inlineEnv struct {
	m   *Manager
	clk *fakeClock

	mu     sync.Mutex
	events []blinkradar.BlinkEvent
	goids  []uint64
}

func newInlineEnv(t *testing.T, bins int) *inlineEnv {
	t.Helper()
	e := &inlineEnv{clk: newFakeClock()}
	cfg := testConfig()
	cfg.NumBins = bins
	cfg.Shards = 1
	cfg.Now = e.clk.now
	cfg.OnBlink = func(_ string, ev blinkradar.BlinkEvent) {
		e.mu.Lock()
		e.events = append(e.events, ev)
		e.goids = append(e.goids, goid())
		e.mu.Unlock()
	}
	e.m = newTestManager(t, cfg)
	return e
}

// start attaches id and has the worker feed its first frame, which no
// previous submit makes on time.
func (e *inlineEnv) start(t *testing.T, id string, f iq.Planes32) {
	t.Helper()
	if err := e.m.Attach(id); err != nil {
		t.Fatal(err)
	}
	inline := e.m.Stats().Inline
	if err := submit(e.m, id, f); err != nil {
		t.Fatal(err)
	}
	if got := e.m.Stats().Inline; got != inline {
		t.Fatal("a stream's first frame was fed inline")
	}
	e.idle(t, id)
}

// idle waits until the worker is done with id: nothing queued, not
// listed, and its feed lock free. The worker then has no reason to
// touch the session until a frame is queued for it.
func (e *inlineEnv) idle(t *testing.T, id string) {
	t.Helper()
	s := lookup(t, e.m, id)
	waitFor(t, "the worker to finish with "+id, func() bool {
		s.qmu.Lock()
		busy := s.n > 0 || s.listed
		s.qmu.Unlock()
		if busy || !s.feedMu.TryLock() {
			return false
		}
		s.feedMu.Unlock()
		return true
	})
}

// onTime advances the clock a frame period and submits f, which must be
// fed before SubmitPlanes returns.
func (e *inlineEnv) onTime(t *testing.T, id string, f iq.Planes32) {
	t.Helper()
	e.clk.advance(framePeriod)
	inline := e.m.Stats().Inline
	if err := submit(e.m, id, f); err != nil {
		t.Fatal(err)
	}
	st, err := e.m.SessionStats(id)
	if err != nil {
		t.Fatal(err)
	}
	if e.m.Stats().Inline != inline+1 || st.Processed != st.Submitted || st.Queued != 0 {
		t.Fatalf("on-time frame %d not fed inline: %+v", st.Submitted, st)
	}
}

// parkWorker stalls the shard worker of a one-shard manager: the worker
// takes a decoy session's frame and blocks on the decoy's feed lock
// until release. Frames queued meanwhile stay queued.
func (e *inlineEnv) parkWorker(t *testing.T) (release func()) {
	t.Helper()
	const decoy = "decoy"
	if err := e.m.Attach(decoy); err != nil {
		t.Fatal(err)
	}
	d := lookup(t, e.m, decoy)
	d.feedMu.Lock()
	var once sync.Once
	release = func() { once.Do(d.feedMu.Unlock) }
	// Registered after newTestManager's Close, so it runs first.
	t.Cleanup(release)
	if err := submit(e.m, decoy, testFrame(d.bins, 0)); err != nil {
		t.Fatal(err)
	}
	sh := e.m.shardFor(decoy)
	waitFor(t, "the worker to take the decoy", func() bool {
		sh.readyMu.Lock()
		defer sh.readyMu.Unlock()
		return sh.readyHead == nil
	})
	return release
}

// goid returns the calling goroutine's id.
func goid() uint64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseUint(f[1], 10, 64)
	return id
}

// TestOnTimeFramesFeedInline: frames a frame period apart are fed
// before SubmitPlanes returns, with the worker stalled, and their blinks
// reach OnBlink on the submitting goroutine.
func TestOnTimeFramesFeedInline(t *testing.T) {
	frames, err := blinkFrames()
	if err != nil {
		t.Fatal(err)
	}
	e := newInlineEnv(t, len(frames[0].I))
	e.start(t, "car", frames[0])
	e.parkWorker(t)
	for _, f := range frames[1:] {
		e.onTime(t, "car", f)
	}
	st, err := e.m.SessionStats("car")
	if err != nil {
		t.Fatal(err)
	}
	if st.Blinks == 0 {
		t.Fatalf("%d frames gave no blink: %+v", len(frames), st)
	}
	caller := goid()
	e.mu.Lock()
	defer e.mu.Unlock()
	if uint64(len(e.events)) != st.Blinks {
		t.Fatalf("OnBlink ran %d times for %d blinks", len(e.events), st.Blinks)
	}
	for i, g := range e.goids {
		if g != caller {
			t.Fatalf("blink %d delivered on goroutine %d, the submitter is %d", i, g, caller)
		}
	}
}

// TestEarlyFramesQueue: frames 1 ms apart go to the worker even when
// the queue is empty and nothing is feeding.
func TestEarlyFramesQueue(t *testing.T) {
	e := newInlineEnv(t, 16)
	if err := e.m.Attach("car"); err != nil {
		t.Fatal(err)
	}
	const n = 40
	for k := 0; k < n; k++ {
		e.clk.advance(time.Millisecond)
		if err := submit(e.m, "car", testFrame(16, k)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the worker to feed", func() bool {
			st, err := e.m.SessionStats("car")
			return err == nil && st.Processed == uint64(k+1)
		})
	}
	if st := e.m.Stats(); st.Inline != 0 || st.Processed != n {
		t.Fatalf("early frames: %d of %d processed inline", st.Inline, st.Processed)
	}
}

// TestOnTimeFrameWaitsBehindQueue: an on-time frame that finds frames
// queued is queued behind them, never fed ahead. The session's events
// must equal a fresh Monitor's over the same frames in order.
func TestOnTimeFrameWaitsBehindQueue(t *testing.T) {
	frames, err := blinkFrames()
	if err != nil {
		t.Fatal(err)
	}
	e := newInlineEnv(t, len(frames[0].I))
	e.start(t, "car", frames[0])
	const backlogAt, backlog = 300, 6
	for _, f := range frames[1:backlogAt] {
		e.onTime(t, "car", f)
	}
	release := e.parkWorker(t)
	inline := e.m.Stats().Inline
	for i, f := range frames[backlogAt : backlogAt+backlog] {
		d := time.Millisecond
		if i == backlog-1 {
			d = framePeriod // on time, but behind the early ones
		}
		e.clk.advance(d)
		if err := submit(e.m, "car", f); err != nil {
			t.Fatal(err)
		}
	}
	st, err := e.m.SessionStats("car")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queued != backlog || e.m.Stats().Inline != inline {
		t.Fatalf("behind a backlog: %+v, %d fed inline; want all %d queued", st, e.m.Stats().Inline-inline, backlog)
	}
	release()
	e.idle(t, "car")
	for _, f := range frames[backlogAt+backlog:] {
		e.onTime(t, "car", f)
	}
	if _, err := e.m.Detach("car"); err != nil {
		t.Fatal(err)
	}

	ref, err := newMonitor(e.m.cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []blinkradar.BlinkEvent
	for _, f := range frames {
		ev, ok, _, err := ref.FeedPlanes(f.I, f.Q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			want = append(want, ev)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(want) == 0 {
		t.Fatal("the reference found no blink")
	}
	if len(e.events) != len(want) {
		t.Fatalf("session delivered %d events, a fresh Monitor %d", len(e.events), len(want))
	}
	for i := range want {
		if e.events[i] != want[i] {
			t.Fatalf("event %d: session %+v, fresh Monitor %+v", i, e.events[i], want[i])
		}
	}
}

// TestNoteGapReachesInlineFrame: a gap reported between on-time frames
// reaches the pipeline with the next frame, fed inline.
func TestNoteGapReachesInlineFrame(t *testing.T) {
	e := newInlineEnv(t, 16)
	e.start(t, "car", testFrame(16, 0))
	for k := 1; k < 10; k++ {
		e.onTime(t, "car", testFrame(16, k))
	}
	if err := e.m.NoteGap("car", 3); err != nil {
		t.Fatal(err)
	}
	e.onTime(t, "car", testFrame(16, 10))
	st, err := e.m.SessionStats("car")
	if err != nil {
		t.Fatal(err)
	}
	s := lookup(t, e.m, "car")
	s.feedMu.Lock()
	heard := s.mon.InputStats().GapFrames
	s.feedMu.Unlock()
	if st.GapFrames != 3 || heard != 3 {
		t.Fatalf("gap of 3: session counted %d, pipeline heard of %d", st.GapFrames, heard)
	}
}

// TestReattachedFirstFrameQueues: a pooled session's first frame of a
// new stream is not judged against the previous stream's last submit.
func TestReattachedFirstFrameQueues(t *testing.T) {
	e := newInlineEnv(t, 16)
	e.start(t, "car", testFrame(16, 0))
	e.parkWorker(t)
	for k := 1; k < 10; k++ {
		e.onTime(t, "car", testFrame(16, k))
	}
	final, err := e.m.Detach("car")
	if err != nil {
		t.Fatal(err)
	}
	if final.Submitted != 10 || final.Processed != 10 {
		t.Fatalf("first stream: %+v, want 10 submitted and processed", final)
	}
	if err := e.m.Attach("car"); err != nil {
		t.Fatal(err)
	}
	if hits := e.m.Stats().PoolHits; hits != 1 {
		t.Fatalf("re-attach: %d pool hits, want 1", hits)
	}
	inline := e.m.Stats().Inline
	e.clk.advance(framePeriod)
	if err := submit(e.m, "car", testFrame(16, 10)); err != nil {
		t.Fatal(err)
	}
	st, err := e.m.SessionStats("car")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queued != 1 || e.m.Stats().Inline != inline {
		t.Fatalf("re-attached stream's first frame: %+v; want it queued", st)
	}
}
