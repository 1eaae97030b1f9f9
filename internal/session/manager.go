package session

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blinkradar"
	"blinkradar/internal/obs"
)

// Typed rejection errors. Callers (the radard ingest listener) switch
// on these to pick a wire-level response; none of them is transient
// except ErrRateLimited, which clears as the bucket refills.
var (
	// ErrManagerClosed: the manager has been shut down.
	ErrManagerClosed = errors.New("session: manager closed")
	// ErrSessionExists: Attach with an ID that is already attached.
	ErrSessionExists = errors.New("session: id already attached")
	// ErrSessionNotFound: the ID is not attached.
	ErrSessionNotFound = errors.New("session: no such session")
	// ErrSessionLimit: admission control refused the attach (process or
	// shard capacity reached).
	ErrSessionLimit = errors.New("session: session limit reached")
	// ErrRateLimited: the session's token bucket is empty; the frame
	// was rejected, not queued.
	ErrRateLimited = errors.New("session: rate limited")
	// ErrGeometry: the frame's bin count does not match the manager's.
	ErrGeometry = errors.New("session: frame geometry mismatch")
)

// Config parameterises a Manager. The zero value of every tuning field
// picks a sensible default; NumBins and FrameRate are mandatory.
type Config struct {
	// NumBins is the range-bin count every stream must announce.
	NumBins int
	// FrameRate is the slow-time frame rate in frames per second.
	FrameRate float64
	// Shards is the number of worker shards (default GOMAXPROCS).
	// Sessions map to shards by ID hash, so a session's queued frames
	// are always fed by the same worker; its on-time frames are fed by
	// the goroutine that submits them (see SubmitPlanes).
	Shards int
	// MaxSessions caps attached sessions process-wide; 0 = unlimited.
	MaxSessions int
	// MaxSessionsPerShard caps one shard's sessions; 0 = unlimited. A
	// hash-unlucky shard rejects rather than silently serving a
	// disproportionate share with one core.
	MaxSessionsPerShard int
	// QueueFrames is the most frames a session's queue holds (default
	// 64); a frame submitted to a full queue is dropped. Storage grows
	// on demand up to this depth while frames wait and shrinks back
	// once the backlog clears, so an idle or paced session holds only
	// a couple of frames' worth.
	QueueFrames int
	// RateLimit is the per-session sustained frame budget in frames
	// per second; 0 disables rate limiting. The token bucket holds
	// rateBurstSec seconds of it.
	RateLimit float64
	// Registry, when non-nil, exports fleet metrics.
	Registry *obs.Registry
	// Now supplies the manager clock (default time.Now): the rate
	// limiter refills from it, and SubmitPlanes judges by it whether a
	// frame arrived on time. Tests inject a fake.
	Now func() time.Time
	// OnBlink, when non-nil, runs for every blink on whichever
	// goroutine fed the frame: the shard worker, or the SubmitPlanes
	// caller for an on-time frame. Either way the feeder holds the
	// session's feed lock, so OnBlink must be fast and must not call
	// Manager methods.
	OnBlink func(id string, ev blinkradar.BlinkEvent)
}

// Fixed tuning of the pipeline, the rate limiter, backpressure and the
// shard scheduler.
const (
	// windowSec is every session's assessment-window span, the paper's
	// one minute. Every session runs the paper-faithful
	// blinkradar.DefaultConfig() pipeline.
	windowSec = 60
	// rateBurstSec is the token-bucket depth in seconds of RateLimit.
	rateBurstSec = 2
	// dropWindowFrames is the backpressure evaluation window: the drop
	// fraction is measured over this many submitted frames.
	dropWindowFrames = 256
	// degradeAtDropFrac escalates a session to PressureDegraded when
	// one evaluation window's drop fraction reaches this value.
	degradeAtDropFrac = 0.5
	// drainBatchFrames bounds how many frames a worker feeds one session
	// before moving to the next, so a busy stream cannot starve its
	// shard-mates.
	drainBatchFrames = 16
	// minQueueSlots is the frame storage a session's queue starts with
	// and never shrinks below.
	minQueueSlots = 2
)

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// shard is one worker goroutine plus the sessions hashed to it.
type shard struct {
	mgr      *Manager
	idx      int
	mu       sync.RWMutex
	sessions map[string]*Session
	free     []*Session // free-list pool, guarded by mgr.admit
	wake     chan struct{}

	// Ready FIFO: the sessions with queued frames, linked through
	// Session.next, so a worker wake visits only those. A session is on
	// it at most once (Session.listed).
	readyMu   sync.Mutex
	readyHead *Session
	readyTail *Session
	queued    atomic.Int64 // frames queued across the shard's sessions

	gSessions   *obs.Gauge
	gQueued     *obs.Gauge
	gSaturation *obs.Gauge
}

// Manager shards radar sessions across per-core workers. All methods
// are safe for concurrent use; SubmitPlanes for distinct sessions
// contends only within a shard.
type Manager struct {
	cfg    Config
	shards []*shard
	// halfPeriod is half a frame period: a frame submitted at least
	// this long after the session's previous submit is on time.
	halfPeriod time.Duration

	// admit serialises attach/detach and guards the free lists and the
	// session count. Churn is not the hot path; frames are.
	admit     sync.Mutex
	nSessions int

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup

	// Aggregate accounting.
	attaches   atomic.Uint64
	detaches   atomic.Uint64
	poolHits   atomic.Uint64
	poolMisses atomic.Uint64
	rejects    atomic.Uint64
	framesIn   atomic.Uint64
	frDropped  atomic.Uint64
	frLimited  atomic.Uint64
	frDone     atomic.Uint64
	frInline   atomic.Uint64
	degrades   atomic.Uint64

	mAttaches   *obs.Counter
	mDetaches   *obs.Counter
	mPoolHits   *obs.Counter
	mPoolMisses *obs.Counter
	mRejects    *obs.Counter
	mFrames     *obs.Counter
	mDropped    *obs.Counter
	mLimited    *obs.Counter
	mDegrades   *obs.Counter
}

// NewManager validates the configuration, builds the shards, and
// starts one worker goroutine per shard. Close joins them.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.NumBins <= 0 {
		return nil, fmt.Errorf("session: NumBins must be positive, got %d", cfg.NumBins)
	}
	if cfg.FrameRate <= 0 {
		return nil, fmt.Errorf("session: FrameRate must be positive, got %g", cfg.FrameRate)
	}
	// Probe-build one monitor now so a geometry no Monitor can track
	// (all guard bins) fails loudly at construction, not on every
	// attach.
	if _, err := newMonitor(cfg); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:        cfg,
		shards:     make([]*shard, cfg.Shards),
		halfPeriod: time.Duration(float64(time.Second) / (2 * cfg.FrameRate)),
		stop:       make(chan struct{}),
	}
	if r := cfg.Registry; r != nil {
		m.mAttaches = r.Counter("session_attaches_total")
		m.mDetaches = r.Counter("session_detaches_total")
		m.mPoolHits = r.Counter("session_pool_hits_total")
		m.mPoolMisses = r.Counter("session_pool_misses_total")
		m.mRejects = r.Counter("session_rejects_total")
		m.mFrames = r.Counter("session_frames_total")
		m.mDropped = r.Counter("session_frames_dropped_total")
		m.mLimited = r.Counter("session_frames_limited_total")
		m.mDegrades = r.Counter("session_degrade_total")
	}
	for i := range m.shards {
		sh := &shard{
			mgr:      m,
			idx:      i,
			sessions: make(map[string]*Session),
			wake:     make(chan struct{}, 1),
		}
		if r := cfg.Registry; r != nil {
			// Bounded construction-time loop: one gauge set per shard,
			// shard count fixed for the manager's lifetime.
			name := shardGaugeName(i)
			sh.gSessions = r.Gauge(name + "_sessions")     //blinkvet:ignore metrichygiene -- per-shard gauges, bounded at construction
			sh.gQueued = r.Gauge(name + "_queued_frames")  //blinkvet:ignore metrichygiene -- per-shard gauges, bounded at construction
			sh.gSaturation = r.Gauge(name + "_saturation") //blinkvet:ignore metrichygiene -- per-shard gauges, bounded at construction
		}
		m.shards[i] = sh
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			sh.run()
		}()
	}
	return m, nil
}

// newMonitor builds one session's Monitor.
func newMonitor(cfg Config) (*blinkradar.Monitor, error) {
	return blinkradar.NewMonitor(blinkradar.DefaultConfig(), cfg.NumBins, cfg.FrameRate, windowSec)
}

// Shards reports how many worker shards the manager runs.
func (m *Manager) Shards() int { return len(m.shards) }

// shardGaugeName is the per-shard metric name prefix.
func shardGaugeName(idx int) string {
	return fmt.Sprintf("session_shard%d", idx)
}

// shardFor hashes the session ID (FNV-1a) onto a shard.
//
//blinkradar:hotpath
func (m *Manager) shardFor(id string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return m.shards[h%uint64(len(m.shards))]
}

// Attach admits a new session. Steady-state churn performs no
// allocations: detached sessions park on their shard's free list and
// are recycled, monitor state and queue storage included.
func (m *Manager) Attach(id string) error {
	if id == "" {
		return fmt.Errorf("session: empty id")
	}
	m.admit.Lock()
	defer m.admit.Unlock()
	if m.closed.Load() {
		return ErrManagerClosed
	}
	sh := m.shardFor(id)
	sh.mu.RLock()
	_, exists := sh.sessions[id]
	nShard := len(sh.sessions)
	sh.mu.RUnlock()
	if exists {
		return ErrSessionExists
	}
	if m.cfg.MaxSessions > 0 && m.nSessions >= m.cfg.MaxSessions {
		m.rejects.Add(1)
		m.mRejects.Inc()
		return ErrSessionLimit
	}
	if m.cfg.MaxSessionsPerShard > 0 && nShard >= m.cfg.MaxSessionsPerShard {
		m.rejects.Add(1)
		m.mRejects.Inc()
		return ErrSessionLimit
	}
	var s *Session
	if k := len(sh.free); k > 0 {
		s = sh.free[k-1]
		sh.free[k-1] = nil
		sh.free = sh.free[:k-1]
		m.poolHits.Add(1)
		m.mPoolHits.Inc()
	} else {
		mon, err := newMonitor(m.cfg)
		if err != nil {
			return err
		}
		s = newSession(m.cfg.NumBins, m.cfg.QueueFrames, mon)
		m.poolMisses.Add(1)
		m.mPoolMisses.Inc()
	}
	s.id = id
	s.tokens = rateBurstSec * m.cfg.RateLimit
	s.lastRefill = m.cfg.Now()
	sh.mu.Lock()
	sh.sessions[id] = s
	nShard = len(sh.sessions)
	sh.mu.Unlock()
	m.nSessions++
	m.attaches.Add(1)
	m.mAttaches.Inc()
	sh.gSessions.Set(float64(nShard))
	return nil
}

// Detach removes a session, recycles its state into the shard pool, and
// returns its final accounting (frames still queued are folded into
// Dropped, so Submitted == Processed + Dropped in the result).
func (m *Manager) Detach(id string) (SessionStats, error) {
	m.admit.Lock()
	defer m.admit.Unlock()
	sh := m.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	nShard := len(sh.sessions)
	sh.mu.Unlock()
	if !ok {
		return SessionStats{}, ErrSessionNotFound
	}
	// Wait out any in-flight feed batch, then recycle under the lock.
	s.feedMu.Lock()
	stats, discarded := s.recycle()
	s.feedMu.Unlock()
	stats.ID = id
	if discarded > 0 {
		// Frames still queued were never fed; fold them into the
		// fleet-level drop accounting like the session-level recycle
		// does, so Frames == Processed + Dropped + Queued stays exact.
		sh.queued.Add(-int64(discarded))
		m.frDropped.Add(discarded)
		m.mDropped.Add(discarded)
	}
	sh.free = append(sh.free, s)
	m.nSessions--
	m.detaches.Add(1)
	m.mDetaches.Inc()
	sh.gSessions.Set(float64(nShard))
	return stats, nil
}

// SubmitPlanes offers one frame, already split into float32 I/Q planes
// (the wire codec's native decode), to a session. A frame that arrives
// on time, at least half a frame period by Config.Now after the
// session's previous submit, is fed through the session's pipeline on
// the caller's goroutine before SubmitPlanes returns, provided no frame
// is queued ahead of it and no feed of the session is in progress. Any
// other frame is copied into the session's queue for its shard worker.
// Either way the caller may reuse the slices immediately. A full queue
// drops the frame, and an empty token bucket rejects it with
// ErrRateLimited; both are accounted and surfaced to the pipeline as a
// gap.
//
// Live radars send at the frame rate, so their frames arrive on time;
// backlogs, replays and catch-up bursts arrive early and keep the
// shard workers' parallelism. A stream that falls behind sends its next
// frames early, so they queue and overload still reaches the
// backpressure ladder.
//
//blinkradar:hotpath
func (m *Manager) SubmitPlanes(id string, pi, pq []float32) error {
	if m.closed.Load() {
		return ErrManagerClosed
	}
	sh := m.shardFor(id)
	sh.mu.RLock()
	s := sh.sessions[id]
	var gen uint64
	if s != nil {
		gen = s.gen.Load()
	}
	sh.mu.RUnlock()
	if s == nil {
		return ErrSessionNotFound
	}
	if len(pi) != s.bins || len(pq) != s.bins {
		return ErrGeometry
	}
	now := m.cfg.Now()
	s.qmu.Lock()
	if s.gen.Load() != gen {
		// The session was detached (and possibly recycled for another
		// stream) between lookup and here.
		s.qmu.Unlock()
		return ErrSessionNotFound
	}
	onTime := !s.lastSubmit.IsZero() && now.Sub(s.lastSubmit) >= m.halfPeriod
	s.lastSubmit = now
	if limit := m.cfg.RateLimit; limit > 0 && !s.takeToken(now, limit) {
		// A refused frame is a hole in slow time, as a dropped one is.
		s.pendingGap++
		s.limited++
		s.qmu.Unlock()
		m.frLimited.Add(1)
		m.mLimited.Inc()
		return ErrRateLimited
	}
	// Inline: with n == 0 there is no queued frame to overtake, and
	// holding feedMu keeps the worker out until this frame is fed.
	// TryLock never waits under qmu, so the lock order stays feedMu →
	// qmu.
	inline := onTime && s.n == 0 && s.feedMu.TryLock()
	accepted, list := true, false
	var gap uint64
	switch {
	case inline:
		gap, s.pendingGap = s.pendingGap, 0
		s.processed++
	case s.push(pi, pq):
		// A queued frame needs its session on the ready FIFO.
		sh.queued.Add(1)
		list = !s.listed
		s.listed = true
	default:
		// Dropped: the queue is full, so the session is already listed.
		accepted = false
		s.dropped++
	}
	s.submitted++
	if s.noteSubmit(accepted) {
		m.degrades.Add(1)
		m.mDegrades.Inc()
	}
	s.qmu.Unlock()
	m.framesIn.Add(1)
	m.mFrames.Inc()
	switch {
	case inline:
		m.frDone.Add(1)
		m.frInline.Add(1)
		m.feed(s, pi, pq, gap) //blinkvet:ignore hotpathalloc -- the Monitor feed allocates only on a vitals-pool miss; CI gates this path at 0 allocs/op through BenchmarkFleetPaced
		s.feedMu.Unlock()
	case !accepted:
		m.frDropped.Add(1)
		m.mDropped.Inc()
	case list:
		sh.enqueue(s)
		sh.wakeWorker()
	}
	return nil
}

// NoteGap reports an upstream frame loss (e.g. a transport sequence
// gap) for a session. It is attached to the next accepted frame and
// delivered to the pipeline before that frame is fed.
func (m *Manager) NoteGap(id string, missed uint64) error {
	if missed == 0 {
		return nil
	}
	sh := m.shardFor(id)
	sh.mu.RLock()
	s := sh.sessions[id]
	var gen uint64
	if s != nil {
		gen = s.gen.Load()
	}
	sh.mu.RUnlock()
	if s == nil {
		return ErrSessionNotFound
	}
	s.qmu.Lock()
	if s.gen.Load() != gen {
		s.qmu.Unlock()
		return ErrSessionNotFound
	}
	s.pendingGap += missed
	s.gapFrames += missed
	s.qmu.Unlock()
	return nil
}

// SessionStats returns a point-in-time view of one session.
func (m *Manager) SessionStats(id string) (SessionStats, error) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s := sh.sessions[id]
	var gen uint64
	if s != nil {
		gen = s.gen.Load()
	}
	sh.mu.RUnlock()
	if s == nil {
		return SessionStats{}, ErrSessionNotFound
	}
	s.qmu.Lock()
	if s.gen.Load() != gen {
		s.qmu.Unlock()
		return SessionStats{}, ErrSessionNotFound
	}
	st := s.snapshot()
	s.qmu.Unlock()
	st.ID = id
	return st, nil
}

// ManagerStats is the fleet-wide accounting aggregate.
type ManagerStats struct {
	// Sessions is the number of sessions currently attached.
	Sessions int
	// Queued is the total frame backlog across all sessions.
	Queued uint64
	// Attaches and Detaches count lifetime churn.
	Attaches, Detaches uint64
	// PoolHits and PoolMisses split attaches by whether state was
	// recycled from the pool or newly allocated.
	PoolHits, PoolMisses uint64
	// Rejects counts admission refusals.
	Rejects uint64
	// Frames, Dropped, Limited, Processed count frames across all
	// sessions' lifetimes (detached sessions included).
	Frames, Dropped, Limited, Processed uint64
	// Inline counts the processed frames that were fed on the
	// submitting goroutine because they arrived on time.
	Inline uint64
	// Degrades counts backpressure escalations to PressureDegraded.
	Degrades uint64
}

// Stats aggregates accounting across every shard in O(shards): each
// shard's read lock is taken briefly for its session count, and Queued
// sums the shards' queued-frame counters.
func (m *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Attaches:   m.attaches.Load(),
		Detaches:   m.detaches.Load(),
		PoolHits:   m.poolHits.Load(),
		PoolMisses: m.poolMisses.Load(),
		Rejects:    m.rejects.Load(),
		Frames:     m.framesIn.Load(),
		Dropped:    m.frDropped.Load(),
		Limited:    m.frLimited.Load(),
		Processed:  m.frDone.Load(),
		Inline:     m.frInline.Load(),
		Degrades:   m.degrades.Load(),
	}
	for _, sh := range m.shards {
		sh.mu.RLock()
		st.Sessions += len(sh.sessions)
		sh.mu.RUnlock()
		st.Queued += uint64(sh.queued.Load())
	}
	return st
}

// Close stops every shard worker and waits for them. Attached sessions
// are not detached; their queues simply stop draining. Close is
// idempotent in effect but returns ErrManagerClosed after the first
// call.
func (m *Manager) Close() error {
	if m.closed.Swap(true) {
		return ErrManagerClosed
	}
	close(m.stop)
	m.wg.Wait()
	return nil
}

// wakeWorker nudges the shard worker; a pending nudge is enough.
//
//blinkradar:hotpath
func (sh *shard) wakeWorker() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// enqueue links s at the tail of the ready FIFO. The caller has just
// set s.listed, or found it still set on a session it took from the
// FIFO, so s is linked nowhere else.
//
//blinkradar:hotpath
func (sh *shard) enqueue(s *Session) {
	sh.readyMu.Lock()
	if sh.readyTail == nil {
		sh.readyHead = s
	} else {
		sh.readyTail.next = s
	}
	sh.readyTail = s
	sh.readyMu.Unlock()
}

// run is the shard worker: on each wake it drains the ready FIFO until
// a take finds it empty, then sleeps on the wake channel. Every submit
// that lists a session wakes the worker after linking it, so no listed
// session is left waiting.
func (sh *shard) run() {
	for {
		select {
		case <-sh.mgr.stop:
			return
		case <-sh.wake:
		}
		for sh.drainReady() {
			select {
			case <-sh.mgr.stop:
				return
			default:
			}
		}
	}
}

// drainReady takes the whole ready FIFO and gives each session on it
// one drainBatchFrames batch. A session that drainSession keeps listed
// goes back on the tail, behind everything listed meanwhile, so a busy
// stream cannot starve its shard-mates. It reports whether the take
// found anything.
func (sh *shard) drainReady() bool {
	sh.readyMu.Lock()
	s := sh.readyHead
	sh.readyHead, sh.readyTail = nil, nil
	sh.readyMu.Unlock()
	sh.publishGauges()
	if s == nil {
		return false
	}
	for s != nil {
		next := s.next
		s.next = nil
		if sh.drainSession(s) {
			sh.enqueue(s)
		}
		s = next
	}
	return true
}

// publishGauges sets the shard's backlog gauges from its queued-frame
// counter. It runs at every take of the ready FIFO, so a worker that
// never sleeps still updates them.
func (sh *shard) publishGauges() {
	if sh.gQueued == nil {
		return
	}
	queued := float64(sh.queued.Load())
	sh.mu.RLock()
	capacity := len(sh.sessions) * sh.mgr.cfg.QueueFrames
	sh.mu.RUnlock()
	sh.gQueued.Set(queued)
	if capacity > 0 {
		sh.gSaturation.Set(queued / float64(capacity))
	} else {
		sh.gSaturation.Set(0)
	}
}

// drainSession feeds one bounded batch from a session's queue through
// its pipeline. peek/commitPop bracket each feed so the slot cannot be
// overwritten mid-feed; feedMu keeps detach from recycling state under
// the worker, and keeps an on-time submit from feeding ahead of the
// batch — making this the worker-side entry of the feed domain.
//
// It then decides, under qmu, whether the session stays listed: while
// frames remain. A submit reads listed under the same lock, so a frame
// queued after the decision lists the session anew. Reports whether to
// re-list.
//
//blinkradar:entry feed
func (sh *shard) drainSession(s *Session) bool {
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	for fed := 0; fed < drainBatchFrames; fed++ {
		pi, pq, gap, ok := s.peek()
		if !ok {
			break
		}
		sh.mgr.feed(s, pi, pq, gap)
		s.commitPop()
		sh.queued.Add(-1)
		sh.mgr.frDone.Add(1)
	}
	s.qmu.Lock()
	more := s.n > 0
	s.listed = more
	s.qmu.Unlock()
	return more
}

// feed runs one frame through a session's pipeline, the one feed body
// of both feeders: the shard worker for a queued frame and a submitter
// for an on-time one, each holding feedMu. It tells the pipeline about
// the frames lost before this one, feeds the frame and counts what the
// pipeline returned. The caller counts the frame itself, under qmu,
// where it leaves the queue or skips it.
//
//blinkradar:entry feed
func (m *Manager) feed(s *Session, pi, pq []float32, gap uint64) {
	if gap > 0 {
		s.mon.NoteGap(gap)
	}
	ev, okEv, a, err := s.mon.FeedPlanes(pi, pq)
	if err != nil {
		s.assessErrs.Add(1)
	}
	if okEv {
		s.blinks.Add(1)
		if m.cfg.OnBlink != nil {
			m.cfg.OnBlink(s.id, ev)
		}
	}
	if a != nil {
		s.assessments.Add(1)
	}
}
