package main

import (
	"fmt"
	"time"

	"blinkradar/internal/session"
)

// A traced run measures the workload twice: first untraced for half the
// time, then with spans around every call for the other half. The
// difference in CPU per frame is the tracing overhead; the per-layer
// metrics and the table come from the traced half, plus probes that
// call the layers the workload runs where the benchmark cannot reach
// them (inside a shard worker or inside ServeStream) on the same
// script frames. Probe failures are reported apart from the workload's
// own verdict.

// common fills the metrics every workload derives the same way.
func common(m map[string]float64, cpuA, cpuB float64, frames int, rt rtDelta, events int) {
	m["transport.wire_bytes_per_frame"] = frameBytes
	m["runtime.alloc_bytes_per_frame"] = float64(rt.allocBytes) / float64(frames)
	m["runtime.gc_cpu_frac"] = rt.gcFrac
	m["runtime.sched_latency_p99_us"] = rt.schedP99Secs * 1e6
	m["trace.cpu_us_per_frame"] = cpuB
	m["trace.overhead_us_per_frame"] = cpuB - cpuA
	m["trace.blink_events"] = float64(events)
}

// monitorRows splits a Monitor.FeedPlanes cost per frame into the
// detector, the vitals push and the Monitor's own window accounting, in
// the proportions the direct probe measured on the same frames.
func monitorRows(total float64, p *feedProbe) []tableRow {
	det, vit := float64(p.core)/float64(p.monitor), float64(p.vitals)/float64(p.monitor)
	return []tableRow{
		{"core.detector", total * det, "Detector.FeedPlanes (probe share)"},
		{"vitals.push", total * vit, "vitals.Monitor.Push (probe share)"},
		{"blinkradar.monitor (other)", total * (1 - det - vit), "window accounting (probe share)"},
	}
}

// closeTable appends the GC row and the named remainder, so the rows
// sum to trace.cpu_us_per_frame.
func closeTable(res *result, rows []tableRow, cpu, gcFrac float64, remainder string) {
	rows = append(rows, tableRow{"runtime.gc", cpu * gcFrac, "GC share of busy CPU (runtime/metrics)"})
	var sum float64
	for _, r := range rows {
		sum += r.us
	}
	rows = append(rows, tableRow{"remainder", cpu - sum, remainder})
	res.table = rows
	res.metrics["trace.remainder_us_per_frame"] = cpu - sum
}

// whole is a probe window covering every frame of a script.
func whole(int) (int, int) { return 0, 1 << 30 }

func traceFleet(cfg *config, c *corpus, res *result, f *fleet, scripts []*script, steps int) error {
	half := steps / 2
	stA, err := f.paced(0, half, false)
	if err != nil {
		return err
	}
	stB, err := f.paced(half, steps, true)
	if err != nil {
		return err
	}
	res.frames = stB.frames
	rec := f.tr.recorder()
	f.finish(res, rec)
	lt := f.tr.summarize()
	m := res.metrics

	// Queue wait of each blink in the traced half: its latency less the
	// generator's lateness, the triggering frame's decode and submit, and
	// that frame's feed time in the reference run.
	nsess := len(f.sess)
	var qwait []float64
	for _, s := range f.sess {
		for _, b := range s.blinks {
			if b.step < half {
				continue
			}
			i := (b.step-half)*nsess + s.idx
			qwait = append(qwait, float64(b.lat-stB.service[i]-s.sc.ref.feed[b.frame])/1e6-stB.slotLag[i])
		}
	}
	res.events = len(qwait)
	cpuB := usPer(stB.cpu, stB.frames)
	common(m, usPer(stA.cpu, stA.frames), cpuB, stB.frames, stB.rt, len(qwait))
	gen := usPer(lt.total[spWake], stB.frames)
	decode, submit := usPer(lt.total[spDecode], stB.frames), usPer(lt.total[spSubmit], stB.frames)
	stats := usPer(lt.total[spStats], stB.frames)
	m["transport.decode_us"] = mean(lt.total[spDecode], lt.count[spDecode])
	m["session.submit_us"] = mean(lt.total[spSubmit], lt.count[spSubmit])
	m["session.backlog_frames"] = float64(stB.backlogSum) / float64(max(stB.backlogSamples, 1))
	m["session.queue_wait_ms"] = quantile(qwait, 0.5)
	m["loadgen.lag_p99_ms"] = quantile(stB.lag, 0.99)
	m["loadgen.cpu_us_per_frame"] = gen

	// Worker-side layers: the same script frames fed directly.
	probe, err := probeFleet(cfg, f, scripts, half, steps)
	if err != nil {
		return err
	}
	probe.put(m)
	m["session.worker_cpu_us_per_frame"] = cpuB - gen
	m["session.overhead_us_per_frame"] = cpuB - gen - m["blinkradar.monitor_feed_us"]
	rows := append([]tableRow{
		{"loadgen (generator self)", gen - decode - submit - stats, "generator wake-up spans less their children"},
		{"session.stats (backlog sample)", stats, "Manager.Stats every 16th wake (traced runs only)"},
		{"transport.decode", decode, "Decoder.DecodePlanes spans"},
		{"session.submit", submit, "Manager.SubmitPlanes spans"},
		{"bench.on_blink", usPer(lt.total[spBlink], stB.frames), "event check in Config.OnBlink"},
	}, monitorRows(m["blinkradar.monitor_feed_us"], &probe)...)
	closeTable(res, rows, cpuB, stB.rt.gcFrac, "session layer: shard scan, queue locks, worker wake-ups, scheduler")

	// Session write side: the attaches and detaches above plus an
	// attach/detach loop on the same Manager, recycling the pooled
	// sessions.
	probeRes := res.probe()
	sp := probeSession(f.mgr, scripts, cfg.attachCycles, cfg.probeSubmits, rec, probeRes)
	m["session.attach_us"] = mean(f.attachTime+sp.attach, f.attaches+sp.nAttach)
	lt = f.tr.summarize()
	m["session.detach_us"] = mean(lt.total[spDetach], lt.count[spDetach])
	st := f.mgr.Stats()
	m["session.pool_hit_frac"] = poolHitFrac(st)
	m["session.dropped_frames"] = float64(st.Dropped)
	if m["ingest.conn_ms"], err = probeIngest(cfg, c, probeRes, f.tr); err != nil {
		return err
	}
	return f.tr.write(cfg.spans)
}

// probeFleet feeds the probe the first sessions' scripts, timing the
// frames of the traced half: starts differ per session, so each
// script's window starts where its session's traced half did.
func probeFleet(cfg *config, f *fleet, scripts []*script, from, to int) (feedProbe, error) {
	return probeFeed(scripts[:min(cfg.fleetProbeScripts, len(scripts))], func(i int) (int, int) {
		start := f.sess[i].start
		return max(from-start, 0), to - start
	}, f.tr.recorder())
}

func traceReplay(cfg *config, c *corpus, res *result, streams []*stream, scripts []*script, measure time.Duration) error {
	stA, cpuA, _, _ := replayMeasured(res, streams, scripts, measure/2, 0, nil)
	tr := newTracer()
	recs := make([]*recorder, len(streams))
	for i := range recs {
		recs[i] = tr.recorder()
	}
	// Every stream replays every capture once, so the traced frames are
	// the same mix the probe below replays.
	stB, cpuB, rt, lat := replayMeasured(res, streams, scripts, measure/2, len(scripts), recs)
	lt := tr.summarize()
	m := res.metrics
	res.frames = stB.frames
	res.events = len(lat)
	cpuBus := usPer(cpuB, stB.frames)
	common(m, usPer(cpuA, stA.frames), cpuBus, stB.frames, rt, len(lat))
	loop := usPer(lt.self[spPass], stB.frames)
	m["transport.decode_us"] = mean(lt.total[spDecode], lt.count[spDecode])
	m["session.queue_wait_ms"] = quantile(stB.qwait, 0.5)
	m["loadgen.lag_p99_ms"] = quantile(stB.lag, 0.99)
	m["loadgen.cpu_us_per_frame"] = loop

	probe, err := probeFeed(scripts, whole, tr.recorder())
	if err != nil {
		return err
	}
	probe.put(m)
	// The workload calls Monitor.FeedPlanes itself, so its own spans
	// give the feed time; the probe splits it.
	m["blinkradar.monitor_feed_us"] = mean(lt.total[spFeed], lt.count[spFeed])
	m["session.worker_cpu_us_per_frame"] = cpuBus
	m["session.overhead_us_per_frame"] = cpuBus - m["blinkradar.monitor_feed_us"]
	rows := append([]tableRow{
		{"replay loop (self)", loop, "pass spans less their decode and feed children"},
		{"transport.decode", usPer(lt.total[spDecode], stB.frames), "Decoder.DecodePlanes spans"},
	}, monitorRows(m["blinkradar.monitor_feed_us"], &probe)...)
	closeTable(res, rows, cpuBus, rt.gcFrac, "Reset, event checks outside spans, span bookkeeping, scheduler")

	// The session and ingest layers are not on this workload's path;
	// probes time them on a Manager of their own.
	mgr, err := session.NewManager(session.Config{NumBins: numBins, FrameRate: frameRate})
	if err != nil {
		return err
	}
	defer mgr.Close()
	probeRes := res.probe()
	sp := probeSession(mgr, scripts, cfg.attachCycles, cfg.probeSubmits, tr.recorder(), probeRes)
	st := mgr.Stats()
	m["session.submit_us"] = mean(sp.submit, sp.nSubmit)
	m["session.attach_us"] = mean(sp.attach, sp.nAttach)
	m["session.detach_us"] = mean(sp.detach, sp.nDetach)
	m["session.backlog_frames"] = float64(sp.backlog) / float64(max(sp.samples, 1))
	m["session.pool_hit_frac"] = poolHitFrac(st)
	m["session.dropped_frames"] = float64(st.Dropped)
	if m["ingest.conn_ms"], err = probeIngest(cfg, c, probeRes, tr); err != nil {
		return err
	}
	return tr.write(cfg.spans)
}

// replayMeasured is one measured replay phase with its totals.
func replayMeasured(res *result, streams []*stream, scripts []*script, d time.Duration, maxPasses int, recs []*recorder) (replayStats, time.Duration, rtDelta, []float64) {
	var all replayStats
	cpu0, rt0 := processCPU(), readRuntime()
	sts, _ := replayPhase(streams, scripts, d, maxPasses, recs)
	cpu := processCPU() - cpu0
	rt := runtimeDelta(rt0, readRuntime())
	frames, lat := foldReplay(res, sts)
	all.frames = frames
	for _, st := range sts {
		all.lag = append(all.lag, st.lag...)
		all.qwait = append(all.qwait, st.qwait...)
	}
	return all, cpu, rt, lat
}

func traceChurn(cfg *config, res *result, ch *churn, scripts []*script, measure time.Duration) error {
	stA := ch.loop(res, churnLoops, 0, measure/2, false)
	ch.tr.reset()
	stB := ch.loop(res, churnLoops, 0, measure/2, true)
	res.frames = stB.frames
	res.events = len(stB.lat)
	lt := ch.tr.summarize()
	m := res.metrics
	cpuB := usPer(stB.cpu, stB.frames)
	common(m, usPer(stA.cpu, stA.frames), cpuB, stB.frames, stB.rt, len(stB.lat))
	client := usPer(stB.clientSelf, stB.frames)
	m["ingest.conn_ms"] = mean(lt.total[spConn], lt.count[spConn]) / 1e3
	m["session.backlog_frames"] = float64(stB.backlogSum) / float64(max(stB.conns, 1))
	m["loadgen.lag_p99_ms"] = quantile(stB.flowWait, 0.99)
	m["loadgen.cpu_us_per_frame"] = client

	// ServeStream decodes and submits itself; the probes make the same
	// calls on the same scripts, the session loop on this Manager.
	probe, err := probeFeed(scripts, whole, ch.tr.recorder())
	if err != nil {
		return err
	}
	probe.put(m)
	decode := probe.perFrame(probe.decode)
	m["transport.decode_us"] = decode
	m["session.worker_cpu_us_per_frame"] = cpuB - client
	m["session.overhead_us_per_frame"] = cpuB - client - m["blinkradar.monitor_feed_us"]
	probeRes := res.probe()
	sp := probeSession(ch.mgr, scripts, cfg.attachCycles, cfg.probeSubmits, ch.tr.recorder(), probeRes)
	st := ch.mgr.Stats()
	submit := mean(sp.submit, sp.nSubmit)
	attach, detach := mean(sp.attach, sp.nAttach), mean(sp.detach, sp.nDetach)
	m["session.submit_us"] = submit
	m["session.attach_us"] = attach
	m["session.detach_us"] = detach
	m["session.pool_hit_frac"] = poolHitFrac(st)
	m["session.dropped_frames"] = float64(st.Dropped)
	var qwait []float64
	for _, b := range stB.blinks {
		qwait = append(qwait, b.latMS-(decode+submit+float64(b.sc.ref.feed[b.frame])/1e3)/1e3)
	}
	m["session.queue_wait_ms"] = quantile(qwait, 0.5)

	rows := append([]tableRow{
		{"loadgen (client self)", client, "client bookkeeping between pipe writes"},
		{"transport.decode", decode, "Decoder.DecodePlanes (probe)"},
		{"session.submit", submit, "Manager.SubmitPlanes (session probe)"},
		{"session.attach+detach", (attach + detach) / float64(churnFrames), "per connection, spread over its frames (session probe)"},
		{"bench.on_blink", usPer(lt.total[spBlink], stB.frames), "event check in Config.OnBlink"},
	}, monitorRows(m["blinkradar.monitor_feed_us"], &probe)...)
	closeTable(res, rows, cpuB, stB.rt.gcFrac, "net.Pipe transfer, ServeStream framing, flow-control polls, shard scan, scheduler")
	return ch.tr.write(cfg.spans)
}

// probe returns a result that collects probe failures apart from the
// workload's verdict; report prints them.
func (r *result) probe() *result {
	if r.probes == nil {
		r.probes = &result{metrics: map[string]float64{}}
	}
	return r.probes
}

func (r *result) probeNotes() []string {
	if r.probes == nil || r.probes.failed == 0 {
		return nil
	}
	return append([]string{fmt.Sprintf("%d probe failures", r.probes.failed)}, r.probes.notes...)
}
