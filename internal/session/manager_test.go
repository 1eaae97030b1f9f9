package session

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"

	"blinkradar"
	"blinkradar/internal/iq"
	"blinkradar/internal/obs"
)

// testConfig is a small-geometry manager config that keeps unit tests
// fast; individual tests override fields.
func testConfig() Config {
	return Config{
		NumBins:   16,
		FrameRate: 25,
		Shards:    2,
	}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// testFrame fills a deterministic, finite radar frame of I/Q planes.
func testFrame(bins int, seed int) iq.Planes32 {
	f := iq.MakePlanes32(bins)
	for b := range f.I {
		ph := float64(seed)*0.13 + float64(b)*0.7
		f.I[b] = float32(math.Cos(ph) * 1e-3)
		f.Q[b] = float32(math.Sin(ph) * 1e-3)
	}
	return f
}

// submit offers one plane frame to a session.
func submit(m *Manager, id string, f iq.Planes32) error {
	return m.SubmitPlanes(id, f.I, f.Q)
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// lookup fetches the live session object for white-box assertions.
func lookup(t *testing.T, m *Manager, id string) *Session {
	t.Helper()
	sh := m.shardFor(id)
	sh.mu.RLock()
	s := sh.sessions[id]
	sh.mu.RUnlock()
	if s == nil {
		t.Fatalf("session %q not attached", id)
	}
	return s
}

func TestSubmitFeedsPipeline(t *testing.T) {
	m := newTestManager(t, testConfig())
	if err := m.Attach("car-1"); err != nil {
		t.Fatal(err)
	}
	frame := testFrame(16, 1)
	const n = 200
	for i := 0; i < n; i++ {
		if err := submit(m, "car-1", frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "queue drain", func() bool {
		st, err := m.SessionStats("car-1")
		return err == nil && st.Processed+st.Dropped == n && st.Queued == 0
	})
	st, err := m.SessionStats("car-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != n {
		t.Fatalf("submitted %d, want %d", st.Submitted, n)
	}
	if st.Submitted != st.Processed+st.Dropped+st.Queued {
		t.Fatalf("accounting broken: %+v", st)
	}
	final, err := m.Detach("car-1")
	if err != nil {
		t.Fatal(err)
	}
	if final.Submitted != final.Processed+final.Dropped {
		t.Fatalf("detach accounting broken: %+v", final)
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSessions = 3
	m := newTestManager(t, cfg)
	for _, id := range []string{"a", "b", "c"} {
		if err := m.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Attach("d"); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("over-capacity attach: got %v, want ErrSessionLimit", err)
	}
	if err := m.Attach("a"); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate attach: got %v, want ErrSessionExists", err)
	}
	if _, err := m.Detach("nope"); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("detach of unknown id: got %v, want ErrSessionNotFound", err)
	}
	if err := submit(m, "nope", testFrame(16, 0)); !errors.Is(err, ErrSessionNotFound) {
		t.Fatalf("submit to unknown id: got %v, want ErrSessionNotFound", err)
	}
	if err := submit(m, "a", testFrame(8, 0)); !errors.Is(err, ErrGeometry) {
		t.Fatalf("wrong-geometry submit: got %v, want ErrGeometry", err)
	}
	if _, err := m.Detach("c"); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach("d"); err != nil {
		t.Fatalf("attach after detach freed capacity: %v", err)
	}
	if got := m.Stats().Rejects; got != 1 {
		t.Fatalf("rejects counter %d, want 1", got)
	}
}

// TestNewManagerRejectsBadGeometry pins the construction-time checks:
// a geometry no Monitor can track fails in NewManager, not on every
// Attach. Eight bins are all guard bins, leaving none to select.
func TestNewManagerRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name      string
		bins      int
		frameRate float64
	}{
		{"zero bins", 0, 25},
		{"negative bins", -4, 25},
		{"guard bins only", 8, 25},
		{"zero frame rate", 16, 0},
		{"negative frame rate", 16, -25},
		{"frame rate past any radar", 16, 1e12},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.NumBins = tc.bins
			cfg.FrameRate = tc.frameRate
			m, err := NewManager(cfg)
			if err == nil {
				m.Close()
				t.Fatalf("NewManager accepted %d bins at %g fps", tc.bins, tc.frameRate)
			}
		})
	}
	cfg := testConfig()
	cfg.NumBins = 9
	newTestManager(t, cfg)
}

func TestPerShardAdmissionLimit(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.MaxSessionsPerShard = 2
	m := newTestManager(t, cfg)
	// Fill one specific shard to its cap using IDs that hash to it.
	target := m.shardFor("seed")
	attached := 0
	rejected := false
	for i := 0; attached < 4 && i < 4096; i++ {
		id := "s" + string(rune('A'+i%26)) + string(rune('0'+i/26))
		if m.shardFor(id) != target {
			continue
		}
		err := m.Attach(id)
		switch {
		case err == nil:
			attached++
		case errors.Is(err, ErrSessionLimit):
			rejected = true
		default:
			t.Fatal(err)
		}
		if rejected {
			break
		}
	}
	if !rejected {
		t.Fatal("per-shard limit never rejected an attach")
	}
	if attached != 2 {
		t.Fatalf("shard admitted %d sessions, want 2", attached)
	}
}

func TestShardAffinity(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	m := newTestManager(t, cfg)
	if got := m.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	cfg.Shards = 0
	if got, want := newTestManager(t, cfg).Shards(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Shards() = %d with the default, want GOMAXPROCS %d", got, want)
	}
	used := map[int]bool{}
	for i := 0; i < 64; i++ {
		id := "veh-" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if err := m.Attach(id); err != nil {
			t.Fatal(err)
		}
		// The session must live in exactly the shard the hash names,
		// and repeat lookups must agree (stable affinity).
		sh := m.shardFor(id)
		if sh != m.shardFor(id) {
			t.Fatalf("shardFor(%q) unstable", id)
		}
		sh.mu.RLock()
		_, ok := sh.sessions[id]
		sh.mu.RUnlock()
		if !ok {
			t.Fatalf("session %q not in its hash shard", id)
		}
		used[sh.idx] = true
	}
	if len(used) < 2 {
		t.Fatalf("64 sessions landed in %d shard(s); hash is not spreading", len(used))
	}
}

func TestAttachDetachChurnAllocFree(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	m := newTestManager(t, cfg)
	frame := testFrame(16, 7)

	// First attach allocates the pooled state (a pool miss)...
	if err := m.Attach("churn"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := submit(m, "churn", frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "drain before churn", func() bool {
		st, _ := m.SessionStats("churn")
		return st.Queued == 0
	})
	if _, err := m.Detach("churn"); err != nil {
		t.Fatal(err)
	}

	// ...after which churn on the same shard recycles it: zero allocs
	// per attach/detach cycle is the pool's contract.
	allocs := testing.AllocsPerRun(200, func() {
		if err := m.Attach("churn"); err != nil {
			panic(err)
		}
		if _, err := m.Detach("churn"); err != nil {
			panic(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("attach/detach churn allocates %.1f per cycle, want 0", allocs)
	}
	st := m.Stats()
	if st.PoolMisses != 1 {
		t.Fatalf("pool misses %d, want 1 (only the cold attach)", st.PoolMisses)
	}
	if st.PoolHits < 200 {
		t.Fatalf("pool hits %d, want >= 200", st.PoolHits)
	}
}

func TestDetachResetsRecycledState(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	m := newTestManager(t, cfg)
	frame := testFrame(16, 3)
	if err := m.Attach("first"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := submit(m, "first", frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "drain", func() bool {
		st, _ := m.SessionStats("first")
		return st.Queued == 0
	})
	if _, err := m.Detach("first"); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach("second"); err != nil {
		t.Fatal(err)
	}
	st, err := m.SessionStats("second")
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 0 || st.Processed != 0 || st.Dropped != 0 || st.Blinks != 0 {
		t.Fatalf("recycled session leaked accounting: %+v", st)
	}
	if st.Pressure != PressureNormal {
		t.Fatalf("recycled session pressure %v, want normal", st.Pressure)
	}
	s := lookup(t, m, "second")
	if s.mon.Detector().Frame() != 0 {
		t.Fatalf("recycled detector carries %d frames of the previous stream", s.mon.Detector().Frame())
	}
}

func TestRateLimiting(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.Shards = 1
	cfg.RateLimit = 2.5 // a two-second bucket holds 5 tokens
	cfg.Now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m := newTestManager(t, cfg)
	if err := m.Attach("limited"); err != nil {
		t.Fatal(err)
	}
	frame := testFrame(16, 9)
	for i := 0; i < 5; i++ {
		if err := submit(m, "limited", frame); err != nil {
			t.Fatalf("within burst, frame %d: %v", i, err)
		}
	}
	if err := submit(m, "limited", frame); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst exhausted: got %v, want ErrRateLimited", err)
	}
	mu.Lock()
	now = now.Add(1200 * time.Millisecond) // refills 3 tokens at 2.5/s
	mu.Unlock()
	for i := 0; i < 3; i++ {
		if err := submit(m, "limited", frame); err != nil {
			t.Fatalf("after refill, frame %d: %v", i, err)
		}
	}
	if err := submit(m, "limited", frame); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("refill overspent: got %v, want ErrRateLimited", err)
	}
	st, err := m.SessionStats("limited")
	if err != nil {
		t.Fatal(err)
	}
	if st.Limited != 2 {
		t.Fatalf("limited count %d, want 2", st.Limited)
	}
	if st.Submitted != 8 {
		t.Fatalf("submitted %d, want 8 (limited frames never enter accounting)", st.Submitted)
	}
	// The limited frames are holes in the stream: the next accepted
	// frame carries them to the pipeline as a gap. GapFrames counts only
	// losses reported upstream.
	mu.Lock()
	now = now.Add(time.Second)
	mu.Unlock()
	if err := submit(m, "limited", frame); err != nil {
		t.Fatalf("after the second refill: %v", err)
	}
	waitFor(t, "the next accepted frame", func() bool {
		st, _ := m.SessionStats("limited")
		return st.Processed == 9
	})
	s := lookup(t, m, "limited")
	s.feedMu.Lock()
	heard := s.mon.InputStats().GapFrames
	s.feedMu.Unlock()
	if st, _ = m.SessionStats("limited"); heard != 2 || st.GapFrames != 0 {
		t.Fatalf("pipeline heard of %d lost frames and the session counted %d upstream, want 2 and 0", heard, st.GapFrames)
	}
}

// TestBackpressureTransitions drives the degradation ladder
// deterministically: the worker is parked on the session's feed lock so
// queue overflow is exact, then released so a drop-free window restores
// the session. The queue holds ¾ of the evaluation window, so the first
// window submitted against the parked worker drops exactly 25% and the
// next, with the queue still full, drops every frame.
func TestBackpressureTransitions(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.QueueFrames = dropWindowFrames * 3 / 4
	m := newTestManager(t, cfg)
	if err := m.Attach("bp"); err != nil {
		t.Fatal(err)
	}
	s := lookup(t, m, "bp")
	frame := testFrame(16, 5)
	parkedWindow := func() {
		t.Helper()
		for i := 0; i < dropWindowFrames; i++ {
			if err := submit(m, "bp", frame); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Park the worker: nothing drains while we overflow the queue.
	s.feedMu.Lock()
	// Window 1: 192 accepted + 64 dropped = 25%, below the threshold.
	parkedWindow()
	if got := s.Pressure(); got != PressureNormal {
		s.feedMu.Unlock()
		t.Fatalf("after 25%% drops: pressure %v, want normal", got)
	}
	// Window 2: queue still full, 256/256 dropped -> degraded, and the
	// session's health reports degraded regardless of the detector.
	parkedWindow()
	if got := s.Pressure(); got != PressureDegraded {
		s.feedMu.Unlock()
		t.Fatalf("after 100%% drops: pressure %v, want degraded", got)
	}
	if st, _ := m.SessionStats("bp"); st.Health != blinkradar.HealthDegraded {
		s.feedMu.Unlock()
		t.Fatalf("degraded session health %v, want HealthDegraded", st.Health)
	}
	if got := m.Stats().Degrades; got != 1 {
		s.feedMu.Unlock()
		t.Fatalf("degrades counter %d, want 1", got)
	}
	s.feedMu.Unlock()

	// Recovery: one drop-free evaluation window restores normal.
	for i := 0; i < dropWindowFrames; i++ {
		var before uint64
		waitFor(t, "queue space", func() bool {
			st, err := m.SessionStats("bp")
			if err != nil {
				return false
			}
			before = st.Dropped
			return st.Queued < uint64(cfg.QueueFrames)
		})
		if err := submit(m, "bp", frame); err != nil {
			t.Fatal(err)
		}
		if st, _ := m.SessionStats("bp"); st.Dropped != before {
			t.Fatal("paced submit still dropped a frame")
		}
	}
	if got := s.Pressure(); got != PressureNormal {
		t.Fatalf("after one clean window: pressure %v, want normal", got)
	}
	// Health is no longer overridden: once the queue has drained, the
	// session reports the detector's own state.
	waitFor(t, "queue to drain", func() bool {
		st, err := m.SessionStats("bp")
		return err == nil && st.Queued == 0
	})
	st, err := m.SessionStats("bp")
	if err != nil {
		t.Fatal(err)
	}
	if want := s.mon.Health(); st.Health == blinkradar.HealthDegraded || st.Health != want {
		t.Fatalf("recovered session health %v, want the detector's %v", st.Health, want)
	}
}

// TestWorkerSkipsIdleSessions pins the scheduler's contract: a worker
// wake visits only sessions with queued frames. The idle shard-mate's
// feed lock is held throughout, so a worker that touched it would stall
// and the busy session would never finish.
func TestWorkerSkipsIdleSessions(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	m := newTestManager(t, cfg)
	for _, id := range []string{"idle", "busy"} {
		if err := m.Attach(id); err != nil {
			t.Fatal(err)
		}
	}
	idle := lookup(t, m, "idle")
	idle.feedMu.Lock()
	var once sync.Once
	release := func() { once.Do(idle.feedMu.Unlock) }
	// Registered after newTestManager's Close, so it runs first: a
	// stalled worker must be freed before Close waits for it.
	t.Cleanup(release)

	const n = 3 * drainBatchFrames
	frame := testFrame(16, 4)
	for i := 0; i < n; i++ {
		if err := submit(m, "busy", frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "busy session drained while its idle shard-mate is locked", func() bool {
		st, err := m.SessionStats("busy")
		return err == nil && st.Processed == n
	})
	release()
	if st := m.Stats(); st.Queued != 0 || st.Processed != n {
		t.Fatalf("after drain: queued %d, processed %d, want 0 and %d", st.Queued, st.Processed, n)
	}
}

// TestDroppedFramesSurfaceAsGaps verifies backpressure drops are not
// silent: the pipeline is told about the hole before the next frame.
func TestDroppedFramesSurfaceAsGaps(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	cfg.QueueFrames = 4
	m := newTestManager(t, cfg)
	if err := m.Attach("gappy"); err != nil {
		t.Fatal(err)
	}
	s := lookup(t, m, "gappy")
	frame := testFrame(16, 11)

	s.feedMu.Lock()
	for i := 0; i < 7; i++ { // 4 queued, 3 dropped
		if err := submit(m, "gappy", frame); err != nil {
			s.feedMu.Unlock()
			t.Fatal(err)
		}
	}
	// An upstream transport gap folds into the same pending hole.
	if err := m.NoteGap("gappy", 5); err != nil {
		s.feedMu.Unlock()
		t.Fatal(err)
	}
	s.qmu.Lock()
	pending := s.pendingGap
	s.qmu.Unlock()
	s.feedMu.Unlock()
	if pending != 8 {
		t.Fatalf("pending gap %d, want 8 (3 dropped + 5 upstream)", pending)
	}
	waitFor(t, "drain", func() bool {
		st, _ := m.SessionStats("gappy")
		return st.Queued == 0
	})
	// The next accepted frame carries the hole to the pipeline.
	if err := submit(m, "gappy", frame); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gap delivery", func() bool {
		st, _ := m.SessionStats("gappy")
		return st.Queued == 0
	})
	// The detector saw the gap: its input accounting matches exactly.
	if gaps := s.mon.InputStats(); gaps.GapFrames != 8 {
		t.Fatalf("pipeline heard about %d lost frames, want 8: %+v", gaps.GapFrames, gaps)
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	m, err := NewManager(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Attach("x"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("second close: got %v, want ErrManagerClosed", err)
	}
	if err := submit(m, "x", testFrame(16, 0)); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("submit after close: got %v, want ErrManagerClosed", err)
	}
	if err := m.Attach("y"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("attach after close: got %v, want ErrManagerClosed", err)
	}
}

// TestConcurrentChurnAndSubmit hammers attach/detach/submit from many
// goroutines; run with -race this is the aliasing/liveness check for
// the shard maps, free lists, and queues.
func TestConcurrentChurnAndSubmit(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	m := newTestManager(t, cfg)
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = "fleet-" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		if err := m.Attach(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			frame := testFrame(16, w)
			for i := 0; i < 400; i++ {
				id := ids[(w*400+i)%len(ids)]
				switch {
				case i%97 == 0:
					// Churn: flap the session under live traffic.
					if _, err := m.Detach(id); err == nil {
						for m.Attach(id) != nil {
							time.Sleep(time.Microsecond)
						}
					}
				default:
					err := submit(m, id, frame)
					if err != nil && !errors.Is(err, ErrSessionNotFound) {
						panic(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	waitFor(t, "drain after churn", func() bool {
		return m.Stats().Queued == 0
	})
	st := m.Stats()
	if st.Frames != st.Processed+st.Dropped {
		t.Fatalf("fleet accounting broken after churn: %+v", st)
	}
	// The shards' queued-frame counters must agree with the sessions'
	// own queues: Detach's discards and the worker's pops both count.
	var perSession uint64
	for _, id := range ids {
		sst, err := m.SessionStats(id)
		if err != nil {
			t.Fatal(err)
		}
		perSession += sst.Queued
	}
	if st.Queued != perSession {
		t.Fatalf("Stats().Queued = %d, sessions hold %d", st.Queued, perSession)
	}
	if st.Sessions != len(ids) {
		t.Fatalf("%d sessions attached after churn, want %d", st.Sessions, len(ids))
	}
}

func TestMetricsRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Shards = 2
	cfg.Registry = reg
	m := newTestManager(t, cfg)
	if err := m.Attach("metered"); err != nil {
		t.Fatal(err)
	}
	frame := testFrame(16, 2)
	for i := 0; i < 10; i++ {
		if err := submit(m, "metered", frame); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "drain", func() bool {
		st, _ := m.SessionStats("metered")
		return st.Queued == 0
	})
	if got := reg.Counter("session_attaches_total").Value(); got != 1 {
		t.Fatalf("session_attaches_total = %d, want 1", got)
	}
	if got := reg.Counter("session_frames_total").Value(); got != 10 {
		t.Fatalf("session_frames_total = %d, want 10", got)
	}
	sh := m.shardFor("metered")
	if got := reg.Gauge(shardGaugeName(sh.idx) + "_sessions").Value(); got != 1 {
		t.Fatalf("shard session gauge = %g, want 1", got)
	}
}

// queuedFrame returns the i-th oldest queued frame of s, indexed as
// peek indexes the oldest.
func queuedFrame(s *Session, i int) (pi, pq []float32, gap uint64) {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	slot := (s.head + i) % len(s.gaps)
	off := 2 * slot * s.bins
	return s.buf[off : off+s.bins], s.buf[off+s.bins : off+2*s.bins], s.gaps[slot]
}

// storage returns the number of frame slots s currently holds.
func storage(s *Session) int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.gaps)
}

// markedFrame is a frame whose samples identify it: bin b of frame k
// holds I = k + b/100 and Q = -I.
func markedFrame(bins, k int) iq.Planes32 {
	f := iq.MakePlanes32(bins)
	for b := range f.I {
		f.I[b] = float32(k) + float32(b)/100
		f.Q[b] = -f.I[b]
	}
	return f
}

// TestQueueGrowsToCapAndDropsAtCap parks the worker on the session's
// feed lock, as TestWorkerSkipsIdleSessions does, and fills the queue:
// storage doubles from minQueueSlots to QueueFrames, and only a submit
// to a queue holding QueueFrames frames is dropped.
func TestQueueGrowsToCapAndDropsAtCap(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	m := newTestManager(t, cfg)
	if err := m.Attach("deep"); err != nil {
		t.Fatal(err)
	}
	s := lookup(t, m, "deep")
	if got := storage(s); got != minQueueSlots {
		t.Fatalf("new session holds %d slots, want %d", got, minQueueSlots)
	}
	s.feedMu.Lock()
	var once sync.Once
	release := func() { once.Do(s.feedMu.Unlock) }
	t.Cleanup(release)

	const depth = 64
	want := minQueueSlots
	for k := 0; k <= depth; k++ {
		if err := submit(m, "deep", markedFrame(16, k)); err != nil {
			t.Fatal(err)
		}
		if k < depth && k+1 > want {
			want *= 2
		}
		if got := storage(s); got != want {
			t.Fatalf("after %d submits: %d slots, want %d", k+1, got, want)
		}
	}
	st, err := m.SessionStats("deep")
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != depth+1 || st.Dropped != 1 || st.Queued != depth {
		t.Fatalf("at the cap: %+v, want %d submitted, 1 dropped, %d queued", st, depth+1, depth)
	}
	for k := 0; k < depth; k++ {
		pi, pq, gap := queuedFrame(s, k)
		last := len(pi) - 1
		if pi[0] != float32(k) || pq[0] != -float32(k) || pi[last] != float32(k)+float32(last)/100 || pq[last] != -pi[last] || gap != 0 {
			t.Fatalf("queued frame %d: I[0] %g Q[0] %g I[%d] %g Q[%d] %g gap %d", k, pi[0], pq[0], last, pi[last], last, pq[last], gap)
		}
	}

	release()
	waitFor(t, "the queued frames to feed", func() bool {
		st, err := m.SessionStats("deep")
		return err == nil && st.Processed == depth && st.Queued == 0
	})
	// The drop rides on the next accepted frame as a one-frame gap.
	if err := submit(m, "deep", markedFrame(16, depth+1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the frame after the drop to feed", func() bool {
		st, err := m.SessionStats("deep")
		return err == nil && st.Processed == depth+1
	})
	s.feedMu.Lock()
	gaps := s.mon.InputStats().GapFrames
	s.feedMu.Unlock()
	if gaps != 1 {
		t.Fatalf("pipeline heard of %d lost frames, want the 1 dropped", gaps)
	}
}

// TestQueueResizeKeepsPeekedFrame grows the queue under a frame the
// worker has peeked: the peeked planes must survive the move, and the
// queue must go on from the next frame with its gap.
func TestQueueResizeKeepsPeekedFrame(t *testing.T) {
	const bins = 16
	s := newSession(bins, 64, nil)
	s.qmu.Lock()
	s.push(markedFrame(bins, 0).I, markedFrame(bins, 0).Q)
	s.qmu.Unlock()
	pi, pq, _, ok := s.peek()
	if !ok {
		t.Fatal("peek of a one-frame queue found nothing")
	}
	s.qmu.Lock()
	s.pendingGap = 3
	for k := 1; len(s.gaps) == minQueueSlots; k++ {
		f := markedFrame(bins, k)
		if !s.push(f.I, f.Q) {
			t.Fatalf("push %d dropped below the cap", k)
		}
	}
	s.qmu.Unlock()
	s.commitPop()
	want := markedFrame(bins, 0)
	for b := range want.I {
		if pi[b] != want.I[b] || pq[b] != want.Q[b] {
			t.Fatalf("peeked bin %d now (%g, %g), want frame 0's (%g, %g)", b, pi[b], pq[b], want.I[b], want.Q[b])
		}
	}
	pi, pq, gap, ok := s.peek()
	want = markedFrame(bins, 1)
	if !ok || gap != 3 || pi[0] != want.I[0] || pq[bins-1] != want.Q[bins-1] {
		t.Fatalf("next peek: ok %v gap %d I[0] %g Q[%d] %g, want frame 1 after a 3-frame gap", ok, gap, pi[0], bins-1, pq[bins-1])
	}
}

// TestQueueShrinksAfterQuietWindow lets a burst grow a queue, then
// checks that one evaluation window of paced frames gives the storage
// back, with the accounting exact throughout.
func TestQueueShrinksAfterQuietWindow(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 1
	m := newTestManager(t, cfg)
	if err := m.Attach("burst"); err != nil {
		t.Fatal(err)
	}
	s := lookup(t, m, "burst")
	submitted := uint64(0)
	check := func(what string) {
		t.Helper()
		st, err := m.SessionStats("burst")
		if err != nil {
			t.Fatal(err)
		}
		if st.Submitted != submitted || st.Submitted != st.Processed+st.Dropped+st.Queued || st.Dropped != 0 {
			t.Fatalf("%s: accounting %+v, want %d submitted, none dropped", what, st, submitted)
		}
	}
	paced := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := submit(m, "burst", testFrame(16, i)); err != nil {
				t.Fatal(err)
			}
			submitted++
			waitFor(t, "paced frame to feed", func() bool {
				st, err := m.SessionStats("burst")
				return err == nil && st.Queued == 0
			})
			check("paced")
		}
	}
	const burst = 40
	// Paced frames up to the burst keep the queue at its minimum; the
	// burst then closes the first evaluation window.
	paced(dropWindowFrames - burst)
	if got := storage(s); got != minQueueSlots {
		t.Fatalf("paced queue holds %d slots, want %d", got, minQueueSlots)
	}
	s.feedMu.Lock()
	for i := 0; i < burst; i++ {
		if err := submit(m, "burst", testFrame(16, i)); err != nil {
			s.feedMu.Unlock()
			t.Fatal(err)
		}
		submitted++
	}
	check("burst")
	got := storage(s)
	s.feedMu.Unlock()
	if got != 64 {
		t.Fatalf("a %d-frame burst left %d slots, want 64", burst, got)
	}
	waitFor(t, "burst to drain", func() bool {
		st, err := m.SessionStats("burst")
		return err == nil && st.Queued == 0
	})
	paced(dropWindowFrames - 1)
	if got := storage(s); got != 64 {
		t.Fatalf("queue shrank to %d slots before its quiet window closed", got)
	}
	paced(1)
	if got := storage(s); got != minQueueSlots {
		t.Fatalf("after a quiet window: %d slots, want %d", got, minQueueSlots)
	}
}

// TestSessionFootprint is the per-session memory tripwire: 64 paced
// sessions past cold start and bin selection must hold at most
// 155 KiB of live heap each (about 144 KiB measured; DESIGN.md §10 has
// the table). The selection scratch is pooled, not held per detector,
// and the tracker and vitals windows store float32 samples, 6 and 7 KB.
// Per-session estimator or selection scratch, a complex128 window or a
// queue kept at its full depth would break it.
func TestSessionFootprint(t *testing.T) {
	const sessions, frames, bins = 64, 300, 150
	base := liveHeap()
	m := newTestManager(t, Config{NumBins: bins, FrameRate: 25})
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("cab-%02d", i)
		if err := m.Attach(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < frames; k++ {
		f := testFrame(bins, k)
		for _, id := range ids {
			if err := submit(m, id, f); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "frames to feed", func() bool { return m.Stats().Queued == 0 })
	}
	if st := m.Stats(); st.Processed != sessions*frames {
		t.Fatalf("processed %d frames, want %d", st.Processed, sessions*frames)
	}
	perSession := float64(liveHeap()-base) / 1024 / sessions
	runtime.KeepAlive(m)
	t.Logf("%.1f KiB of live heap per session", perSession)
	if perSession > 155 {
		t.Fatalf("%.1f KiB of live heap per session, budget 155 KiB", perSession)
	}
}

// liveHeap forces a collection and returns the live heap it found.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
