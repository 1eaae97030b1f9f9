package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"blinkradar"
)

// stream is one flat-out replay cycling through the corpus captures.
// Between passes it resets its Monitor like a pooled session
// (replay-saturate) or builds a new one like radarwatch does for each
// stream it watches (replay-fresh).
type stream struct {
	idx     int
	fresh   bool
	mon     *blinkradar.Monitor
	matched []bool
	next    int       // index of the capture the next pass replays
	prevEnd time.Time // end of the previous frame (traced phases)
}

// restart readies the stream's Monitor for a new pass.
func (s *stream) restart() error {
	if s.mon != nil && !s.fresh {
		s.mon.Reset()
		return nil
	}
	mon, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), numBins, frameRate, windowSec)
	s.mon = mon
	return err
}

// replayStats is what one stream measured in a phase.
type replayStats struct {
	frames, passes, errors, diverged int
	lat                              []float64 // ms
	lag, qwait                       []float64 // ms, traced phases only
}

// pass replays one capture from a reset or new Monitor, stopping early
// at the deadline, and checks every event against the reference: each
// pass, after Reset too, must reproduce a fresh Monitor's output exactly.
func (s *stream) pass(sc *script, deadline time.Time, rec *recorder, st *replayStats) (stopped bool) {
	if err := s.restart(); err != nil {
		st.errors++
		return true
	}
	dec := newDecoder(sc.wire)
	ref := &sc.ref
	if cap(s.matched) < len(ref.events) {
		s.matched = make([]bool, len(ref.events))
	}
	matched := s.matched[:len(ref.events)]
	clear(matched)
	nmatch := 0
	root := rec.begin(spPass, -1, reqID(s.idx, 0))
	k := 0
	traced := rec != nil
	for ; k < sc.n; k++ {
		t0 := time.Now()
		if t0.After(deadline) {
			stopped = true
			break
		}
		if traced && !s.prevEnd.IsZero() {
			st.lag = append(st.lag, float64(t0.Sub(s.prevEnd))/1e6)
		}
		req := reqID(s.idx, k)
		sp := rec.begin(spDecode, root, req)
		f, err := dec.DecodePlanes()
		rec.end(sp)
		if err != nil {
			st.errors++
			break
		}
		sp = rec.begin(spFeed, root, req)
		ev, ok, _, err := s.mon.FeedPlanes(f.I, f.Q)
		rec.end(sp)
		var fed time.Duration
		if traced {
			fed = time.Since(t0)
		}
		if err != nil {
			st.errors++
		}
		if ok {
			// The frame that confirmed the event is this one, whatever
			// the reference says, so every event is timed.
			if i, ok := ref.match(ev, matched); ok && ref.at[i] == k {
				nmatch++
			} else {
				st.diverged++
			}
			lat := time.Since(t0)
			st.lat = append(st.lat, float64(lat)/1e6)
			if traced {
				st.qwait = append(st.qwait, float64(lat-fed)/1e6)
			}
		}
		if traced {
			s.prevEnd = time.Now()
		}
	}
	rec.end(root)
	st.frames += k
	st.diverged += ref.expected(k) - nmatch
	if !stopped {
		st.passes++
	}
	return stopped
}

// replayPhase runs every stream on its own goroutine until the deadline
// or until each has completed maxPasses passes (0: no limit).
func replayPhase(streams []*stream, scripts []*script, d time.Duration, maxPasses int, recs []*recorder) ([]replayStats, time.Duration) {
	out := make([]replayStats, len(streams))
	t0 := time.Now()
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for i, s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *recorder
			if recs != nil {
				rec = recs[i]
			}
			for p := 0; maxPasses == 0 || p < maxPasses; p++ {
				sc := scripts[s.next]
				s.next = (s.next + 1) % len(scripts)
				if s.pass(sc, deadline, rec, &out[i]) {
					return
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0)
}

func foldReplay(res *result, sts []replayStats) (frames int, lat []float64) {
	for i, st := range sts {
		frames += st.frames
		lat = append(lat, st.lat...)
		res.failed += st.errors + st.diverged
		if st.errors+st.diverged > 0 {
			res.note(fmt.Sprintf("stream %d: %d feed errors, %d divergent passes or events", i, st.errors, st.diverged))
		}
	}
	res.attempted += frames
	return frames, lat
}

// runReplay is the replay-saturate workload, or replay-fresh when
// fresh is set.
func runReplay(cfg *config, c *corpus, res *result, fresh bool) error {
	scripts := make([]*script, len(c.caps))
	for i := range scripts {
		scripts[i] = c.sliceScript(i, 0, c.caps[i].n)
	}
	res.fingerprint = fingerprint(c, scripts)
	if err := computeReferences(scripts, cfg.trace); err != nil {
		return err
	}
	if cfg.perturb {
		perturb(scripts)
	}
	heap0 := liveHeap()

	// Set-up: build the Monitors and run one full warm-up pass per
	// stream, so the vitals window has filled and the heap has grown to
	// its steady size; repeated so its median is steady.
	var streams []*stream
	var setups []float64
	far := time.Now().Add(time.Hour)
	for r := 0; r < cfg.replaySetups; r++ {
		runtime.GC()
		t0 := time.Now()
		streams = streams[:0]
		for i := 0; i < replayStreams; i++ {
			streams = append(streams, &stream{idx: i, fresh: fresh, next: (i * len(scripts) / replayStreams) % len(scripts)})
		}
		sts, _ := replayPhase(streams, scripts, time.Until(far), 1, nil)
		setups = append(setups, time.Since(t0).Seconds())
		foldReplay(res, sts)
	}
	res.metrics["setup_s"] = median(setups)

	measure := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		runtime.GC()
		cpu0, rt0 := processCPU(), readRuntime()
		sts, wall := replayPhase(streams, scripts, measure, 0, nil)
		cpu := processCPU() - cpu0
		frames, lat := foldReplay(res, sts)
		res.frames = frames
		res.gcCycles = runtimeDelta(rt0, readRuntime()).gcCycles
		res.events = len(lat)
		res.metrics["cpu_us_per_frame"] = usPer(cpu, frames)
		res.metrics["frames_per_s"] = float64(frames) / wall.Seconds()
		res.metrics["blink_latency_p50_ms"] = quantile(lat, 0.50)
		res.latP99 = quantile(lat, 0.99)
		res.metrics["heap_kib_per_session"] = heapPer(heap0, len(streams))
		// The inputs were live at heap0 and must be at the end too.
		runtime.KeepAlive(scripts)
		runtime.KeepAlive(streams)
		return nil
	}
	return traceReplay(cfg, c, res, streams, scripts, measure)
}
