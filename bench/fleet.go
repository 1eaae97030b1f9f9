package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"blinkradar"
	"blinkradar/internal/session"
	"blinkradar/internal/transport"
)

// fleetSession is one paced stream. The generator owns dec, next and
// the admission fields; the event fields are written only by the
// session's shard worker (from OnBlink) and read after Detach, whose
// feed lock orders the two.
type fleetSession struct {
	idx   int
	id    string
	sc    *script
	phase time.Duration // offset of its frames within the 40-ms period
	start int           // measured-phase step its script frame 0 is due; < 0 for warmed sessions
	dec   *transport.Decoder
	next  int // script frames submitted so far

	arrives      bool // attached by the generator at step start, not at set-up
	attached     bool
	attachFailed bool

	matched          []bool // reference events seen so far
	nmatch, diverged int
	blinks           []fleetBlink
}

// fleetBlink is one event confirmed during a measured phase.
type fleetBlink struct {
	frame, step int // script frame that confirmed it, and its measured-phase step
	lat         time.Duration
}

// fleet is one set-up of the paced workload: a Manager, its sessions and
// the generator state. The phase bounds are atomics because OnBlink reads
// them on the shard workers.
type fleet struct {
	cfg  *config
	mgr  *session.Manager
	sess []*fleetSession
	byID map[string]*fleetSession
	tr   *tracer

	base       atomic.Int64 // UnixNano of the measured phase's time zero
	phaseFrom  atomic.Int64 // first step of the measured phase, -1 outside one
	phaseTo    atomic.Int64
	refused    int
	limited    int
	attachTime time.Duration
	attaches   int
}

// newFleet builds a Manager and admits every session whose script
// starts before the measured phase; the others arrive during it.
func newFleet(cfg *config, scripts []*script, starts []int, tr *tracer) (*fleet, error) {
	f := &fleet{cfg: cfg, byID: make(map[string]*fleetSession, len(scripts)), tr: tr}
	f.phaseFrom.Store(-1)
	f.phaseTo.Store(-1)
	for i, sc := range scripts {
		s := &fleetSession{
			idx:     i,
			id:      fmt.Sprintf("driver-%04d", i),
			sc:      sc,
			phase:   time.Duration(i) * framePeriod / time.Duration(len(scripts)),
			start:   starts[i],
			arrives: starts[i] >= 0,
			dec:     newDecoder(sc.wire),
			matched: make([]bool, len(sc.ref.events)),
		}
		f.sess = append(f.sess, s)
		f.byID[s.id] = s
	}
	mgr, err := session.NewManager(session.Config{
		NumBins:   numBins,
		FrameRate: frameRate,
		OnBlink:   f.onBlink,
	})
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	rec := tr.recorder()
	for _, s := range f.sess {
		if s.arrives {
			continue
		}
		if err := f.attach(s, rec); err != nil {
			mgr.Close()
			return nil, fmt.Errorf("attach %s: %w", s.id, err)
		}
	}
	return f, nil
}

// attach admits s, timed as a span.
func (f *fleet) attach(s *fleetSession, rec *recorder) error {
	sp := rec.begin(spAttach, -1, reqID(s.idx, 0))
	t0 := time.Now()
	err := f.mgr.Attach(s.id)
	f.attachTime += time.Since(t0)
	f.attaches++
	rec.end(sp)
	s.attached = err == nil
	return err
}

// due maps a session's script frame to its measured-phase step: frames
// after a sequence gap fall due gapLen periods later, as a radio that
// lost them would send them.
func (s *fleetSession) due(frame int) int {
	if s.sc.gapAt >= 0 && frame >= s.sc.gapAt {
		return s.start + frame + s.sc.gapLen
	}
	return s.start + frame
}

// onBlink runs on the shard worker that owns the session: it checks the
// event against the reference and, inside a measured phase, times it
// from the due time of the frame that confirmed it.
func (f *fleet) onBlink(id string, ev blinkradar.BlinkEvent) {
	now := time.Now()
	s := f.byID[id]
	if _, ok := s.sc.ref.match(ev, s.matched); ok {
		s.nmatch++
	} else {
		s.diverged++
	}
	at, ok := s.sc.ref.trigger(ev)
	if !ok {
		return
	}
	if from, t := int(f.phaseFrom.Load()), s.due(at); from >= 0 && t >= from && t < int(f.phaseTo.Load()) {
		due := time.Unix(0, f.base.Load()).Add(time.Duration(t-from)*framePeriod + s.phase)
		s.blinks = append(s.blinks, fleetBlink{frame: at, step: t, lat: now.Sub(due)})
	}
	f.tr.callback(spBlink, now, reqID(s.idx, at))
}

// submit decodes the session's next frame and offers it to the manager,
// exactly as ingest.ServeStream does for a connection: a gap in the
// sequence numbers becomes Manager.NoteGap before the frame after it.
func (f *fleet) submit(s *fleetSession, rec *recorder, parent int32) (decode, submit time.Duration, err error) {
	req := reqID(s.idx, s.next)
	sp := rec.begin(spDecode, parent, req)
	t0 := time.Now()
	pf, err := s.dec.DecodePlanes()
	t1 := time.Now()
	rec.end(sp)
	if err != nil {
		return 0, 0, fmt.Errorf("decode %s frame %d: %w", s.id, s.next, err)
	}
	if s.next == s.sc.gapAt {
		if err := f.mgr.NoteGap(s.id, uint64(s.sc.gapLen)); err != nil {
			f.refused++
		}
	}
	s.next++
	sp = rec.begin(spSubmit, parent, req)
	err = f.mgr.SubmitPlanes(s.id, pf.I, pf.Q)
	t2 := time.Now()
	rec.end(sp)
	switch {
	case err == nil:
	case errors.Is(err, session.ErrRateLimited):
		f.limited++
	default:
		f.refused++
	}
	return t1.Sub(t0), t2.Sub(t1), nil
}

// warmup streams the frames each admitted session sends before the
// measured phase (its lead and the warm-up) as fast as the shards
// absorb them, round-robin, so every session ends the warm-up on the
// same round. Each round gives every active session one frame; the
// generator sleeps whenever the backlog passes a quarter of the active
// sessions' queue capacity. That bound is on the total, and a shard
// whose worker stalls can hold most of it, so every warmGuardEvery
// rounds the generator also waits until no session is more than
// warmGuard frames behind: with both, no 64-frame queue overflows.
func (f *fleet) warmup() error {
	rounds := 0
	for _, s := range f.sess {
		rounds = max(rounds, -s.start)
	}
	for r := 0; r < rounds; r++ {
		active := 0
		for _, s := range f.sess {
			if s.arrives || r < rounds+s.start {
				continue
			}
			active++
			if _, _, err := f.submit(s, nil, -1); err != nil {
				return err
			}
		}
		for f.mgr.Stats().Queued > uint64(active*16) {
			time.Sleep(500 * time.Microsecond)
		}
		if r%warmGuardEvery == 0 {
			f.waitBehind(warmGuard)
		}
	}
	f.waitDrained()
	return nil
}

// Warm-up guard: at most warmGuard+warmGuardEvery frames queued per
// session, half the default 64-frame queue.
const warmGuard, warmGuardEvery = 24, 8

// waitBehind sleeps until every attached session has processed all but
// at most behind of the frames submitted to it.
func (f *fleet) waitBehind(behind int) {
	for _, s := range f.sess {
		if !s.attached {
			continue
		}
		for {
			st, err := f.mgr.SessionStats(s.id)
			if err != nil || int(st.Processed+st.Dropped) >= s.next-behind {
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
}

// waitDrained sleeps until the shards have fed every submitted frame
// or dropped it; finish reports drops as failures.
func (f *fleet) waitDrained() {
	var want uint64
	for _, s := range f.sess {
		want += uint64(s.next)
	}
	for {
		st := f.mgr.Stats()
		if st.Processed+st.Dropped >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// pacedStats is what one paced phase measured.
type pacedStats struct {
	frames         int
	wall, cpu      time.Duration
	rt             rtDelta
	wakes          int
	backlogSum     uint64 // Manager.Stats().Queued summed over sampled wakes
	backlogSamples int

	// Traced phases only. lag lists the generator's lateness for every
	// frame, in ms; slotLag and service hold it and the frame's
	// decode+submit time by slot, (step-from)*sessions + session.
	lag     []float64
	slotLag []float64
	service []time.Duration
}

// backlogEvery spaces the generator's backlog samples: Manager.Stats
// walks every session, so sampling each wake would dominate the traced
// generator's own cost.
const backlogEvery = 16

// tick is the generator's wake-up period. Frames falling due within a
// tick are submitted together at its end. Waking for every frame
// instead (12,800 wakes a second) made the fleet's CPU per frame swing
// between 49 and 83 us and its p50 latency between 0.06 and 1.1 ms from
// run to run on a 2-vCPU VM: each wake-up costs a full shard scan, so
// the cost per frame depends on how many frames each wake happens to
// find, and on a VM that depends on how long an idle vCPU takes to
// wake. A fixed tick fixes the batch each wake finds.
const tick = time.Millisecond

// paced runs measured-phase steps [from, to) on the 25 fps schedule:
// session i's step-t frame is due at t0 + (t-from)/25 s + i/N of a frame
// period. A session that arrives attaches when its first frame is due.
// The generator sleeps until the end of the next tick (it never spins:
// the two shard workers need both cores) and then submits every frame
// due by then. A traced phase times each wake-up as a span, which is the
// generator's busy time: locking it to a thread to read that thread's
// CPU instead would make every wake a thread hand-off and inflate the
// CPU per frame by half.
func (f *fleet) paced(from, to int, traced bool) (pacedStats, error) {
	var st pacedStats
	var rec *recorder
	if traced {
		rec = f.tr.recorder()
		n := (to - from) * len(f.sess)
		st.lag = make([]float64, 0, n)
		st.slotLag = make([]float64, n)
		st.service = make([]time.Duration, n)
	}
	runtime.GC()
	t0 := time.Now().Add(20 * time.Millisecond)
	f.base.Store(t0.UnixNano())
	f.phaseTo.Store(int64(to))
	f.phaseFrom.Store(int64(from))
	sl, err := newSleeper()
	if err != nil {
		return st, err
	}
	defer sl.close()
	cpu0, rt0 := processCPU(), readRuntime()
	wake := rec.begin(spWake, -1, 0)
	end := t0 // end of the tick being submitted
	for t := from; t < to; t++ {
		for i, s := range f.sess {
			if s.attachFailed || s.next >= s.sc.n || s.due(s.next) != t {
				continue
			}
			due := t0.Add(time.Duration(t-from)*framePeriod + s.phase)
			for due.After(end) {
				end = end.Add(tick)
				rec.end(wake)
				if err := sl.until(end); err != nil {
					return st, err
				}
				st.wakes++
				wake = rec.begin(spWake, -1, 0)
				if traced && st.wakes%backlogEvery == 0 {
					sp := rec.begin(spStats, wake, 0)
					st.backlogSum += f.mgr.Stats().Queued
					rec.end(sp)
					st.backlogSamples++
				}
			}
			slot := (t-from)*len(f.sess) + i
			if traced {
				lag := float64(time.Since(due)) / 1e6
				st.lag = append(st.lag, lag)
				st.slotLag[slot] = lag
			}
			if s.arrives && !s.attached {
				if err := f.attach(s, rec); err != nil {
					s.attachFailed = true
					continue
				}
			}
			dec, sub, err := f.submit(s, rec, wake)
			if err != nil {
				return st, err
			}
			st.frames++
			if traced {
				st.service[slot] = dec + sub
			}
		}
	}
	rec.end(wake)
	f.waitDrained()
	st.wall = time.Since(t0)
	st.cpu = processCPU() - cpu0
	st.rt = runtimeDelta(rt0, readRuntime())
	f.phaseFrom.Store(-1)
	return st, nil
}

// finish detaches every session and folds the frames it was offered,
// its final accounting and its event check into the result.
func (f *fleet) finish(res *result, rec *recorder) {
	for _, s := range f.sess {
		if s.attachFailed {
			res.attempted++
			res.fail("attach %s refused", s.id)
			continue
		}
		if !s.attached {
			continue // arrives in a measured phase this set-up never ran
		}
		res.attempted += s.next
		sp := rec.begin(spDetach, -1, reqID(s.idx, s.next))
		stats, err := f.mgr.Detach(s.id)
		rec.end(sp)
		if err != nil {
			res.fail("detach %s: %v", s.id, err)
			continue
		}
		sent, gap := uint64(s.next), uint64(0)
		if s.sc.gapAt >= 0 && s.next > s.sc.gapAt {
			gap = uint64(s.sc.gapLen)
		}
		if stats.Submitted != sent || stats.Processed != sent || stats.Dropped != 0 || stats.Limited != 0 || stats.GapFrames != gap || stats.AssessErrs != 0 {
			res.fail("%s accounting: submitted %d processed %d dropped %d limited %d gaps %d errors %d, sent %d with gap %d",
				s.id, stats.Submitted, stats.Processed, stats.Dropped, stats.Limited, stats.GapFrames, stats.AssessErrs, sent, gap)
		}
		res.divergent(s.id, s.diverged, s.nmatch, s.sc.ref.expected(s.next))
	}
	res.failed += f.refused + f.limited
}

// runFleet is the fleet-paced workload, or fleet-arrivals when
// arrivals is set.
func runFleet(cfg *config, c *corpus, res *result, arrivals bool) error {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x666c656574))
	steps := int(cfg.seconds * frameRate)
	// Leads spread the warmed sessions evenly over one reselection
	// interval, as independent drivers' streams would be: started
	// together, every session would run its 100-200 us bin reselection
	// in the same 40-ms period, a storm no real fleet sees.
	warmed, arriving := cfg.fleetSessions, 0
	if arrivals {
		arriving = cfg.fleetArrivals
		warmed -= arriving
	}
	every := blinkradar.DefaultConfig().ReselectIntervalFrames
	perm := rng.Perm(warmed)
	starts := make([]int, warmed+arriving)
	scripts := make([]*script, warmed+arriving)
	for i := range scripts[:warmed] {
		starts[i] = -(perm[i]*every/warmed + cfg.fleetWarm)
		n := steps - starts[i]
		ci := i % len(c.caps)
		scripts[i] = c.sliceScript(ci, rng.Intn(c.caps[ci].n-n+1), n)
	}
	// Arriving drivers attach one by one over the first three quarters
	// of the measured phase and stream from their capture's first frame,
	// with one radio gap of churnGap frames at a seed-drawn point.
	for j := range arriving {
		i := warmed + j
		starts[i] = j * (steps * 3 / 4) / arriving
		n := steps - starts[i] - churnGap
		if n < 2 {
			return fmt.Errorf("%v is too short for arrivals", cfg.seconds)
		}
		ci := i % len(c.caps)
		sc, err := c.gapScript(ci, rng.Intn(c.caps[ci].n-n+1), n, max(1, n*2/5+rng.Intn(n*2/5+1)), churnGap)
		if err != nil {
			return err
		}
		scripts[i] = sc
	}
	res.fingerprint = fingerprint(c, scripts)
	if err := computeReferences(scripts, cfg.trace); err != nil {
		return err
	}
	if cfg.perturb {
		perturb(scripts)
	}
	heap0 := liveHeap()

	// Set-up: construction, admission of every session and warm-up past
	// cold start and the 30-s vitals window, repeated so its median is
	// steady. Only the last set-up goes on to the measured phase.
	var f *fleet
	var setups []float64
	for r := 0; r < cfg.fleetSetups; r++ {
		var tr *tracer
		if cfg.trace && r == cfg.fleetSetups-1 {
			tr = newTracer()
		}
		runtime.GC()
		t0 := time.Now()
		nf, err := newFleet(cfg, scripts, starts, tr)
		if err != nil {
			return err
		}
		if err := nf.warmup(); err != nil {
			nf.mgr.Close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if r < cfg.fleetSetups-1 {
			nf.finish(res, nil)
			nf.mgr.Close()
			continue
		}
		f = nf
	}
	defer f.mgr.Close()
	res.metrics["setup_s"] = median(setups)

	if cfg.trace {
		return traceFleet(cfg, c, res, f, scripts, steps)
	}
	st, err := f.paced(0, steps, false)
	if err != nil {
		return err
	}
	f.finish(res, nil)
	res.frames = st.frames
	res.gcCycles = st.rt.gcCycles
	var lat []float64
	for _, s := range f.sess {
		for _, b := range s.blinks {
			lat = append(lat, float64(b.lat)/1e6)
		}
	}
	res.events = len(lat)
	res.metrics["cpu_us_per_frame"] = usPer(st.cpu, st.frames)
	res.metrics["frames_per_s"] = float64(st.frames) / st.wall.Seconds()
	res.metrics["blink_latency_p50_ms"] = quantile(lat, 0.50)
	res.latP99 = quantile(lat, 0.99)
	res.metrics["heap_kib_per_session"] = heapPer(heap0, len(f.sess))
	return nil
}

func heapPer(base uint64, sessions int) float64 {
	h := liveHeap()
	if h < base {
		return 0
	}
	return float64(h-base) / 1024 / float64(sessions)
}
