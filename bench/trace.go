package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span names: one per call the benchmark makes into the program, plus
// the benchmark's own loop bodies that parent them.
const (
	spWake   = iota // fleet generator: one wake-up, parent of its decodes and submits
	spPass          // replay stream: one capture pass, parent of its decodes and feeds
	spDecode        // transport.Decoder.DecodePlanes
	spSubmit        // session.Manager.SubmitPlanes
	spFeed          // blinkradar.Monitor.FeedPlanes
	spAttach        // session.Manager.Attach
	spDetach        // session.Manager.Detach
	spConn          // ingest.ServeStream, first hello byte to OnDetach
	spBlink         // Config.OnBlink callback (benchmark bookkeeping on the shard worker)
	spStats         // session.Manager.Stats, sampled by the fleet generator for the backlog

	// Direct-feed probe: the same script frames through the worker-side
	// layers, called by the benchmark itself.
	spProbeDecode   // transport.Decoder.DecodePlanes
	spProbeMonitor  // blinkradar.Monitor.FeedPlanes
	spProbeCore     // core Detector.FeedPlanes
	spProbeVitals   // vitals.Monitor.Push
	spProbePre      // core.Preprocessor.ProcessPlanes
	spProbeRegistry // Detector.FeedPlanes with an obs.Registry attached
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"loadgen.wake", "replay.pass", "transport.decode", "session.submit",
	"blinkradar.feed", "session.attach", "session.detach", "ingest.conn", "bench.on_blink", "session.stats",
	"probe.transport.decode", "probe.blinkradar.feed", "probe.core.feed", "probe.vitals.push",
	"probe.core.preprocess", "probe.core.feed_registry",
}

// span is one timed call. Parent indexes a span of the same recorder
// (-1 for a root); req packs the session (high 32 bits) and the frame
// index within that session's script (low 32 bits).
type span struct {
	name       uint8
	parent     int32
	start, end int64 // ns since the run's trace epoch
	req        uint64
}

func reqID(session, frame int) uint64 { return uint64(session)<<32 | uint64(uint32(frame)) }

// recorder keeps the spans of one goroutine in memory. A nil recorder
// records nothing, which is how untraced runs call the same code.
type recorder struct {
	epoch time.Time
	spans []span
	lost  int
}

// maxSpansPerRecorder bounds trace memory: a recorder that fills up
// keeps counting calls as lost instead of growing without limit.
const maxSpansPerRecorder = 1 << 20

func (r *recorder) begin(name uint8, parent int32, req uint64) int32 {
	if r == nil {
		return -1
	}
	if len(r.spans) >= maxSpansPerRecorder {
		r.lost++
		return -1
	}
	r.spans = append(r.spans, span{name: name, parent: parent, req: req})
	i := len(r.spans) - 1
	// Read the clock last, so the append is not inside the span.
	r.spans[i].start = int64(time.Since(r.epoch))
	return int32(i)
}

func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
}

// timed runs fn and returns its duration, recording it as a span when
// record is set (the span's own clock reads are the measurement).
func (r *recorder) timed(name uint8, req uint64, record bool, fn func()) time.Duration {
	if record {
		if sp := r.begin(name, -1, req); sp >= 0 {
			fn()
			r.end(sp)
			return time.Duration(r.spans[sp].end - r.spans[sp].start)
		}
	}
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// tracer owns every recorder of a traced run; worker-side callbacks
// share one mutex-guarded recorder because the benchmark cannot tell
// which shard worker invoked them.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	recs  []*recorder
	cb    *recorder
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.cb = t.recorder()
	return t
}

// recorder returns a new per-goroutine recorder (nil on a nil tracer).
func (t *tracer) recorder() *recorder {
	if t == nil {
		return nil
	}
	r := &recorder{epoch: t.epoch}
	t.mu.Lock()
	t.recs = append(t.recs, r)
	t.mu.Unlock()
	return r
}

// callback records a completed worker-side span under the lock.
func (t *tracer) callback(name uint8, start time.Time, req uint64) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	if len(t.cb.spans) < maxSpansPerRecorder {
		t.cb.spans = append(t.cb.spans, span{name: name, parent: -1, start: int64(start.Sub(t.epoch)), end: int64(end), req: req})
	} else {
		t.cb.lost++
	}
	t.mu.Unlock()
}

// layerTimes is the per-name aggregate of a set of spans.
type layerTimes struct {
	count [numSpanNames]int
	total [numSpanNames]time.Duration
	self  [numSpanNames]time.Duration
}

// summarize aggregates every recorder's spans: a span's self time is
// its duration minus the time its children cover.
func (t *tracer) summarize() layerTimes {
	var lt layerTimes
	if t == nil {
		return lt
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range t.recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			d := s.end - s.start
			lt.count[s.name]++
			lt.total[s.name] += time.Duration(d)
			lt.self[s.name] += time.Duration(d - child[i])
		}
	}
	return lt
}

// reset drops every recorded span (the recorders stay registered).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	for _, r := range t.recs {
		r.spans = r.spans[:0]
		r.lost = 0
	}
	t.mu.Unlock()
}

// write dumps every span as tab-separated text: recorder, index, name,
// start and end in ns since the trace epoch, parent index, session,
// frame.
func (t *tracer) write(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "rec\tidx\tname\tstart_ns\tend_ns\tparent\tsession\tframe")
	t.mu.Lock()
	lost := 0
	for ri, r := range t.recs {
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\n", ri, i, spanNames[s.name],
				s.start, s.end, s.parent, s.req>>32, uint32(s.req))
		}
		lost += r.lost
	}
	t.mu.Unlock()
	if lost > 0 {
		fmt.Fprintf(w, "# %d calls not recorded: a recorder reached %d spans\n", lost, maxSpansPerRecorder)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
