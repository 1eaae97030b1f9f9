package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"blinkradar"
	"blinkradar/internal/core"
	"blinkradar/internal/obs"
	"blinkradar/internal/session"
	"blinkradar/internal/transport"
	"blinkradar/internal/vitals"
)

// feedProbe times the worker-side layers the benchmark cannot call
// inside a session: it replays script frames directly through a Monitor
// and through stand-alone twins of its parts (Detector, vitals.Monitor,
// Preprocessor, and a Detector with a registry attached), one pass per
// twin so they do not evict each other's state. Per-frame sums cover
// script frames [lo, hi); per-call means of rare calls (cold start,
// reselection) cover every frame.
type feedProbe struct {
	frames   int
	decode   time.Duration
	monitor  time.Duration
	core     time.Duration
	vitals   time.Duration
	pre      time.Duration
	regCore  time.Duration
	steady   time.Duration
	steadyN  int
	reselIn  time.Duration // reselection calls inside [lo, hi)
	resel    time.Duration
	reselN   int
	cold     time.Duration
	coldN    int
	stageSum [3]float64 // seconds, inside [lo, hi)
	stageN   [3]uint64
}

var stageNames = [3]string{"core_stage_preprocess_seconds", "core_stage_select_seconds", "core_stage_track_seconds"}

// probeFeed replays scripts through the worker-side layers, timing
// script i's frames [lo, hi) as window(i) gives them; calls on those
// frames are recorded as spans on rec.
func probeFeed(scripts []*script, window func(i int) (lo, hi int), rec *recorder) (feedProbe, error) {
	var p feedProbe
	cfg := blinkradar.DefaultConfig()
	for si, sc := range scripts {
		lo, hi := window(si)
		end := min(hi, sc.n)
		in := func(k int) bool { return k >= lo && k < end }
		p.frames += max(end-lo, 0)

		dec := newDecoder(sc.wire)
		pi, pq := make([][]float32, sc.n), make([][]float32, sc.n)
		var err error
		for k := range pi {
			var f transport.PlaneFrame
			d := rec.timed(spProbeDecode, reqID(si, k), in(k), func() { f, err = dec.DecodePlanes() })
			if err != nil {
				return p, err
			}
			if in(k) {
				p.decode += d
			}
			pi[k], pq[k] = append([]float32(nil), f.I...), append([]float32(nil), f.Q...)
		}

		mon, err := blinkradar.NewMonitor(cfg, numBins, frameRate, windowSec)
		if err != nil {
			return p, err
		}
		for k := range pi {
			if k == sc.gapAt {
				mon.NoteGap(uint64(sc.gapLen))
			}
			d := rec.timed(spProbeMonitor, reqID(si, k), in(k), func() { _, _, _, err = mon.FeedPlanes(pi[k], pq[k]) })
			if err != nil {
				return p, err
			}
			if in(k) {
				p.monitor += d
			}
		}

		// The Detector and vitals twins reproduce Monitor's own
		// composition: vitals take the tracked bin's sample, and a bin
		// change or an unbridged gap restarts their window.
		det, err := blinkradar.NewDetector(cfg, numBins, frameRate)
		if err != nil {
			return p, err
		}
		vm, err := vitals.NewMonitor(frameRate, 30, 5)
		if err != nil {
			return p, err
		}
		vbin := -1
		every := det.Config().ReselectIntervalFrames
		for k := range pi {
			if k == sc.gapAt {
				det.NoteGap(uint64(sc.gapLen))
				if det.Health() != blinkradar.HealthTracking {
					vm.Reset()
					vbin = -1
				}
			}
			before := det.Bin()
			d := rec.timed(spProbeCore, reqID(si, k), in(k), func() { _, _, err = det.FeedPlanes(pi[k], pq[k]) })
			if err != nil {
				return p, err
			}
			switch {
			case before < 0 && det.Bin() >= 0:
				p.cold += d
				p.coldN++
			case before >= 0 && det.Frame()%every == 0:
				p.resel += d
				p.reselN++
				if in(k) {
					p.reselIn += d
				}
			case in(k):
				p.steady += d
				p.steadyN++
			}
			if in(k) {
				p.core += d
			}
			if z, bin, ok := det.CurrentSample(); ok {
				if bin != vbin {
					vm.Reset()
					vbin = bin
				}
				d := rec.timed(spProbeVitals, reqID(si, k), in(k), func() { vm.Push(z) })
				if in(k) {
					p.vitals += d
				}
			}
		}

		pre, err := core.NewPreprocessor(cfg, numBins, frameRate)
		if err != nil {
			return p, err
		}
		bi, bq := make([]float32, numBins), make([]float32, numBins)
		for k := range pi {
			copy(bi, pi[k])
			copy(bq, pq[k])
			d := rec.timed(spProbePre, reqID(si, k), in(k), func() { err = pre.ProcessPlanes(bi, bq) })
			if err != nil {
				return p, err
			}
			if in(k) {
				p.pre += d
			}
		}

		reg := obs.NewRegistry()
		rd, err := blinkradar.NewDetector(cfg, numBins, frameRate)
		if err != nil {
			return p, err
		}
		rd.SetRegistry(reg)
		var hists [3]*obs.Histogram
		for i, n := range stageNames {
			hists[i] = reg.Histogram(n, obs.DefLatencyBuckets())
		}
		var sum0 [3]float64
		var n0 [3]uint64
		for k := range pi {
			if k == lo {
				for i, h := range hists {
					sum0[i], n0[i] = h.Sum(), h.Count()
				}
			}
			if k == sc.gapAt {
				rd.NoteGap(uint64(sc.gapLen))
			}
			d := rec.timed(spProbeRegistry, reqID(si, k), in(k), func() { _, _, err = rd.FeedPlanes(pi[k], pq[k]) })
			if err != nil {
				return p, err
			}
			if in(k) {
				p.regCore += d
			}
			if k == end-1 {
				for i, h := range hists {
					p.stageSum[i] += h.Sum() - sum0[i]
					p.stageN[i] += h.Count() - n0[i]
				}
			}
		}
	}
	if p.frames == 0 {
		return p, fmt.Errorf("feed probe covered no frames")
	}
	return p, nil
}

func (p *feedProbe) perFrame(d time.Duration) float64 { return usPer(d, p.frames) }

// put records the probe's layer metrics.
func (p *feedProbe) put(m map[string]float64) {
	m["blinkradar.monitor_post_us"] = p.perFrame(p.monitor - p.core)
	m["blinkradar.monitor_feed_us"] = p.perFrame(p.monitor)
	m["vitals.push_us_per_frame"] = p.perFrame(p.vitals)
	m["core.feed_us"] = p.perFrame(p.core)
	m["core.reselect_us"] = mean(p.resel, p.reselN)
	m["core.reselect_share"] = float64(p.reselIn) / float64(p.core)
	m["core.coldstart_us"] = mean(p.cold, p.coldN)
	m["core.steady_us"] = mean(p.steady, p.steadyN)
	m["core.preprocess_us"] = p.perFrame(p.pre)
	for i, name := range []string{"core.stage_preprocess_us", "core.stage_select_us", "core.stage_track_us"} {
		if p.stageN[i] > 0 {
			m[name] = p.stageSum[i] / float64(p.stageN[i]) * 1e6
		} else {
			m[name] = 0
		}
	}
	m["core.registry_overhead_us"] = p.perFrame(p.regCore - p.core)
}

// sessionProbe is a traced attach/submit/detach loop on a Manager:
// every cycle admits a session (recycled from the pool after the first
// misses), submits a few frames, waits for them, and detaches.
type sessionProbe struct {
	attach, detach, submit    time.Duration
	nAttach, nDetach, nSubmit int
	backlog                   uint64
	samples                   int
}

func probeSession(mgr *session.Manager, scripts []*script, cycles, submits int, rec *recorder, res *result) sessionProbe {
	var p sessionProbe
	ids := make([]string, cycles)
	for i := range ids {
		ids[i] = fmt.Sprintf("probe-%d", i)
	}
	for i, id := range ids {
		sc := scripts[i%len(scripts)]
		dec := newDecoder(sc.wire)
		sp := rec.begin(spAttach, -1, reqID(i, 0))
		t0 := time.Now()
		err := mgr.Attach(id)
		p.attach += time.Since(t0)
		rec.end(sp)
		p.nAttach++
		if err != nil {
			res.fail("probe attach %s: %v", id, err)
			continue
		}
		n := min(submits, sc.n)
		for k := 0; k < n; k++ {
			f, err := dec.DecodePlanes()
			if err != nil {
				res.fail("probe decode: %v", err)
				break
			}
			sp := rec.begin(spSubmit, -1, reqID(i, k))
			t0 := time.Now()
			err = mgr.SubmitPlanes(id, f.I, f.Q)
			p.submit += time.Since(t0)
			rec.end(sp)
			p.nSubmit++
			if err != nil {
				res.fail("probe submit %s: %v", id, err)
			}
		}
		p.backlog += mgr.Stats().Queued
		p.samples++
		for {
			st, err := mgr.SessionStats(id)
			if err != nil || int(st.Processed+st.Dropped) >= n {
				break
			}
			runtime.Gosched()
		}
		sp = rec.begin(spDetach, -1, reqID(i, n))
		t0 = time.Now()
		st, err := mgr.Detach(id)
		p.detach += time.Since(t0)
		rec.end(sp)
		p.nDetach++
		if err != nil || st.Processed != uint64(n) || st.Dropped != 0 {
			res.fail("probe detach %s: processed %d dropped %d of %d: %v", id, st.Processed, st.Dropped, n, err)
		}
	}
	return p
}

func poolHitFrac(st session.ManagerStats) float64 {
	if n := st.PoolHits + st.PoolMisses; n > 0 {
		return float64(st.PoolHits) / float64(n)
	}
	return 0
}

// probeIngest opens a few connections through ingest.ServeStream on a
// fresh Manager, for workloads that otherwise make none, and returns
// the mean connection lifetime in ms.
func probeIngest(cfg *config, c *corpus, res *result, tr *tracer) (float64, error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x70726f6265))
	scripts, err := churnScripts(c, rng, 8, churnFrames, churnGap)
	if err != nil {
		return 0, err
	}
	if err := computeReferences(scripts, false); err != nil {
		return 0, err
	}
	ch, err := newChurn(cfg, c, scripts, rng.Uint32(), tr)
	if err != nil {
		return 0, err
	}
	defer ch.mgr.Close()
	before := tr.summarize()
	ch.loop(res, 1, cfg.probeConns, 0, true)
	after := tr.summarize()
	return mean(after.total[spConn]-before.total[spConn], after.count[spConn]-before.count[spConn]) / 1e3, nil
}
