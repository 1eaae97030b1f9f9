// Package session is the fleet service layer: one radard process
// serving thousands of concurrent radar streams. A Manager shards
// sessions across per-core worker goroutines (session → shard by ID
// hash). A frame that arrives on time, at the stream's frame rate, to
// an idle session runs through the pipeline on the submitting goroutine
// itself; a frame that arrives early (a backlog, a replay, a catch-up
// burst) is queued for its shard's worker, so bursts keep the shards'
// parallelism. The Manager recycles detector/monitor state through a
// free-list pool so stream churn costs no steady-state allocations,
// admits new sessions against hard capacity limits, rate-limits each
// stream with a token bucket, and degrades under backpressure one way:
// a full queue drops frames (accounted as sequence gaps the pipeline is
// told about), and a session that drops at least half the frames of an
// evaluation window is reported degraded until a drop-free window.
// Every session assesses drowsiness over the paper's fixed one-minute
// window.
package session

import (
	"sync"
	"sync/atomic"
	"time"

	blinkradar "blinkradar"
)

// PressureState is a session's backpressure level. One evaluation
// window that drops at least degradeAtDropFrac of its frames degrades
// the session; only a completely drop-free window restores it, which is
// the hysteresis that keeps a session from oscillating at the
// threshold.
type PressureState int32

const (
	// PressureNormal: drops, if any, are below the degrade threshold.
	PressureNormal PressureState = iota
	// PressureDegraded: severe drops; the session's health is reported
	// as degraded and its assessments should not be trusted.
	PressureDegraded
)

func (p PressureState) String() string {
	switch p {
	case PressureNormal:
		return "normal"
	case PressureDegraded:
		return "degraded"
	default:
		return "unknown"
	}
}

// Session is one attached radar stream: a pooled Monitor plus a frame
// queue between the submitting goroutine (transport reader) and the
// shard worker. On-time frames skip the queue and are fed by the
// submitter. All state is recycled on detach; the struct is only ever
// allocated on a pool miss.
type Session struct {
	id string
	// mon belongs to the feed domain: the Monitor is not concurrent-safe,
	// so only a feeder holding feedMu (the shard worker, or a submitter
	// feeding an on-time frame) and the recycle path may touch it.
	// Health() is the one documented cross-goroutine-safe call.
	mon *blinkradar.Monitor //blinkradar:confined feed

	// Frame queue: a ring of len(gaps) slots, each holding one frame's
	// float32 I/Q planes back to back in buf — the wire's own
	// representation, so queueing a decoded frame is two plain copies
	// with no complex widening. Slot i carries gaps[i], the frames known
	// lost immediately before it (upstream sequence gaps plus local
	// backpressure drops), delivered to the pipeline as NoteGap before
	// the frame is fed so slow-time state is never silently
	// concatenated across a hole. Storage starts at minQueueSlots and
	// grows by doubling while frames wait, up to slots; peak, the
	// deepest the queue has been since the last evaluation-window close,
	// decides when it shrinks back.
	qmu        sync.Mutex
	buf        []float32
	gaps       []uint64
	head, n    int
	peak       int
	slots      int
	bins       int
	pendingGap uint64

	// listed (under qmu) is true while the session holds its one place
	// in the shard's ready FIFO: linked there, or taken by the worker
	// and not yet re-listed or cleared. A submit that queues a frame
	// into an unlisted session sets it and links the session.
	listed bool
	// next links the shard's ready FIFO (under the shard's readyMu;
	// owned by the worker once it has taken the list).
	next *Session

	// Token bucket (under qmu). Refilled from the manager clock.
	tokens     float64
	lastRefill time.Time
	// lastSubmit (under qmu) is the manager clock at the stream's
	// previous submit; zero before its first, which is never on time.
	lastSubmit time.Time

	// Backpressure evaluation window (under qmu).
	winSubmitted, winDropped int

	// pressure is set by the submitter at each evaluation window's end
	// and read by Pressure from any goroutine.
	pressure atomic.Int32

	// feedMu is held around every feed, by the shard worker for a drain
	// batch and by a submitter for one on-time frame, and by detach
	// around recycling, so pooled state never changes hands mid-feed.
	// Lock order: feedMu, then qmu. A submitter holding qmu only
	// TryLocks feedMu, so it never waits for a feed.
	feedMu sync.Mutex

	// gen increments on every recycle. A submitter captures it at map
	// lookup and re-checks under qmu, so a SubmitPlanes racing a Detach
	// can never push into a recycled (or re-attached) session.
	gen atomic.Uint64

	// Frame accounting (under qmu). Every count changes in the same
	// critical section as the queue state it describes, so a snapshot
	// under qmu is an exact cut, and a Detach, which bumps gen under
	// qmu, cannot land between a submit and its counts. A queued frame
	// counts as processed when commitPop frees its slot, an on-time
	// frame when its submitter takes it for the pipeline.
	submitted uint64
	processed uint64
	dropped   uint64
	limited   uint64
	gapFrames uint64

	// Pipeline outcomes, counted by the feeder under feedMu and read by
	// snapshots under qmu.
	blinks      atomic.Uint64
	assessments atomic.Uint64
	assessErrs  atomic.Uint64
}

// newSession runs before the session is published to any shard map:
// no other goroutine can see the state it initializes.
//
//blinkradar:entry feed
func newSession(bins, slots int, mon *blinkradar.Monitor) *Session {
	s := &Session{
		mon:   mon,
		slots: slots,
		bins:  bins,
	}
	s.resize(min(minQueueSlots, slots))
	return s
}

// push enqueues one frame of I/Q planes into the next free slot,
// stamping the gap that precedes it. A full queue below its slots cap
// first doubles its storage; at the cap the frame is dropped and folded
// into the gap preceding whatever frame is accepted next. Caller holds
// qmu.
//
//blinkradar:hotpath
func (s *Session) push(pi, pq []float32) bool {
	if s.n == len(s.gaps) {
		if s.n == s.slots {
			s.pendingGap++
			return false
		}
		s.resize(min(2*s.n, s.slots))
	}
	slot := s.head + s.n
	if slot >= len(s.gaps) {
		slot -= len(s.gaps)
	}
	s.gaps[slot] = s.pendingGap
	s.pendingGap = 0
	s.n++
	off := 2 * slot * s.bins
	copy(s.buf[off:off+s.bins], pi)
	copy(s.buf[off+s.bins:off+2*s.bins], pq)
	return true
}

// resize moves the queued frames, oldest first, into new storage of
// size slots, where they occupy slots 0..n-1. The replaced storage is
// never written again, so a frame the worker is feeding from a peek
// stays intact; its copy lands in slot 0, which the next commitPop
// frees. Caller holds qmu.
//
//blinkradar:coldpath
func (s *Session) resize(size int) {
	buf := make([]float32, 2*size*s.bins)
	gaps := make([]uint64, size)
	for i := 0; i < s.n; i++ {
		slot := (s.head + i) % len(s.gaps)
		copy(buf[2*i*s.bins:2*(i+1)*s.bins], s.buf[2*slot*s.bins:2*(slot+1)*s.bins])
		gaps[i] = s.gaps[slot]
	}
	s.buf, s.gaps, s.head = buf, gaps, 0
}

// peek returns the oldest queued frame's planes without dequeueing it.
// The slot stays occupied until commitPop, so a concurrent push can
// never write over a frame the worker is feeding: push writes only
// slot head+n with n < len(gaps), which is never head while n ≥ 1, and
// a resize copies the frame out and leaves the storage peek returned
// untouched.
//
//blinkradar:hotpath
func (s *Session) peek() (pi, pq []float32, gap uint64, ok bool) {
	s.qmu.Lock()
	if s.n == 0 {
		s.qmu.Unlock()
		return nil, nil, 0, false
	}
	off := 2 * s.head * s.bins
	pi = s.buf[off : off+s.bins]
	pq = s.buf[off+s.bins : off+2*s.bins]
	gap = s.gaps[s.head]
	s.qmu.Unlock()
	return pi, pq, gap, true
}

// commitPop frees the slot returned by the last peek, once its frame
// has been fed, and counts the frame processed.
//
//blinkradar:hotpath
func (s *Session) commitPop() {
	s.qmu.Lock()
	s.head++
	if s.head == len(s.gaps) {
		s.head = 0
	}
	s.n--
	s.processed++
	s.qmu.Unlock()
}

// takeToken refills from the wall clock at rate tokens per second, up
// to rateBurstSec seconds' worth, and spends one token. Caller holds
// qmu.
//
//blinkradar:hotpath
func (s *Session) takeToken(now time.Time, rate float64) bool {
	if el := now.Sub(s.lastRefill).Seconds(); el > 0 {
		s.tokens += el * rate
		if burst := rateBurstSec * rate; s.tokens > burst {
			s.tokens = burst
		}
		s.lastRefill = now
	}
	if s.tokens >= 1 {
		s.tokens--
		return true
	}
	return false
}

// noteSubmit advances the backpressure evaluation window and, at its
// end, moves the pressure level: to degraded when the window dropped at
// least degradeAtDropFrac of its frames, back to normal only after a
// completely clean window. The window's end also shrinks a queue that
// stayed at or below a quarter of its storage throughout, to the
// smallest power of two holding twice its peak, so a warm-up burst's
// storage is given back after one quiet window. Reports whether the
// session has just become degraded. Caller holds qmu.
//
//blinkradar:hotpath
func (s *Session) noteSubmit(accepted bool) (degraded bool) {
	s.winSubmitted++
	if !accepted {
		s.winDropped++
	}
	s.peak = max(s.peak, s.n)
	if s.winSubmitted < dropWindowFrames {
		return false
	}
	if 4*s.peak <= len(s.gaps) {
		size := minQueueSlots
		for size < 2*s.peak {
			size <<= 1
		}
		if size < len(s.gaps) {
			s.resize(size)
		}
	}
	s.peak = 0
	frac := float64(s.winDropped) / float64(s.winSubmitted)
	s.winSubmitted, s.winDropped = 0, 0
	switch {
	case frac >= degradeAtDropFrac:
		return PressureState(s.pressure.Swap(int32(PressureDegraded))) != PressureDegraded
	case frac == 0:
		s.pressure.Store(int32(PressureNormal))
	}
	return false
}

// Pressure returns the session's current backpressure level.
func (s *Session) Pressure() PressureState {
	return PressureState(s.pressure.Load())
}

// recycle returns the session to pooled idle state and reports its
// final accounting plus the frames it discarded. Frames still queued
// were never fed; they are folded into the dropped count so submitted
// == processed + dropped holds at detach. Caller holds feedMu and has
// already removed the session from its shard map, so no feed is in
// flight, and the gen bump under qmu turns away every submitter that
// found the session before the removal — which is exactly the
// ownership the feed domain requires.
//
// listed is left alone: a ready-FIFO entry that outlives the detach
// reaches only this shard's worker (free lists are per shard), which
// then finds no frames, or the frames of whoever re-attached the
// session, and clears or re-lists it as for any other entry.
//
//blinkradar:entry feed
func (s *Session) recycle() (SessionStats, uint64) {
	s.qmu.Lock()
	s.gen.Add(1)
	discarded := uint64(s.n)
	s.dropped += discarded
	s.head, s.n, s.peak = 0, 0, 0
	stats := s.snapshot()
	s.pendingGap = 0
	s.tokens = 0
	s.lastRefill = time.Time{}
	s.lastSubmit = time.Time{}
	s.winSubmitted, s.winDropped = 0, 0
	s.submitted, s.processed, s.dropped, s.limited, s.gapFrames = 0, 0, 0, 0, 0
	s.qmu.Unlock()

	s.mon.Reset()
	s.id = ""
	s.pressure.Store(int32(PressureNormal))
	s.blinks.Store(0)
	s.assessments.Store(0)
	s.assessErrs.Store(0)
	return stats, discarded
}

// snapshot collects the session's accounting. Caller holds qmu.
func (s *Session) snapshot() SessionStats {
	st := SessionStats{
		ID:          s.id,
		Submitted:   s.submitted,
		Processed:   s.processed,
		Dropped:     s.dropped,
		Limited:     s.limited,
		GapFrames:   s.gapFrames,
		Queued:      uint64(s.n),
		Blinks:      s.blinks.Load(),
		Assessments: s.assessments.Load(),
		AssessErrs:  s.assessErrs.Load(),
		Pressure:    s.Pressure(),
		Health:      s.mon.Health(),
	}
	if st.Pressure == PressureDegraded {
		st.Health = blinkradar.HealthDegraded
	}
	return st
}

// SessionStats is a point-in-time view of one session's accounting,
// taken under the session's queue lock. Submitted == Processed +
// Dropped + Queued holds in every view: a queued frame counts as
// Queued until its feed ends, an on-time frame as Processed from the
// moment its submitter takes it for the pipeline. Rate-limited frames
// are counted in Limited only and never enter the queue.
type SessionStats struct {
	// ID is the session identifier.
	ID string
	// Submitted counts frames accepted past the rate limiter.
	Submitted uint64
	// Processed counts frames fed through the pipeline.
	Processed uint64
	// Dropped counts frames lost to backpressure (queue full, plus
	// frames still queued at detach).
	Dropped uint64
	// Limited counts frames rejected by the token bucket.
	Limited uint64
	// GapFrames counts frames the transport reported lost upstream via
	// NoteGap — sequence holes the pipeline was told about, as opposed
	// to local backpressure drops (Dropped). A soak harness that knows
	// exactly how many frames its chaos injector removed can check this
	// for equality.
	GapFrames uint64
	// Queued is the current queue depth.
	Queued uint64
	// Blinks counts blink events the pipeline delivered.
	Blinks uint64
	// Assessments counts completed window assessments.
	Assessments uint64
	// AssessErrs counts pipeline feed/assessment errors.
	AssessErrs uint64
	// Pressure is the backpressure level.
	Pressure PressureState
	// Health is the detector health, overridden to HealthDegraded when
	// the session is pressure-degraded.
	Health blinkradar.HealthState
}
