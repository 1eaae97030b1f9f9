package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"blinkradar"
	"blinkradar/internal/ingest"
	"blinkradar/internal/session"
)

// pipeAddr gives each net.Pipe connection its own remote address:
// ServeStream keys sessions by RemoteAddr, and every bare net.Pipe
// reports "pipe".
type pipeAddr string

func (a pipeAddr) Network() string { return "pipe" }
func (a pipeAddr) String() string  { return string(a) }

type addrConn struct {
	net.Conn
	addr pipeAddr
}

func (c addrConn) RemoteAddr() net.Addr { return c.addr }

// conn is one churn connection. sendAt is written by the client before
// each frame goes on the pipe and read by the shard worker after the
// frame was decoded and queued, which orders the two. got, diverged and
// lat belong to the worker (OnBlink); end and stats to ServeStream's
// goroutine (OnDetach), read after it returns.
type conn struct {
	idx    int
	id     string
	sc     *script
	sendAt []time.Time

	matched          []bool // reference events seen so far
	nmatch, diverged int
	blinks           []churnBlink

	// Client-side timing, traced phases only.
	flowWait   []float64 // ms waited for the flow window before each frame
	clientSelf time.Duration

	start, end time.Time
	stats      session.SessionStats
	detached   bool
}

// churnBlink is one confirmed event and its latency from the moment the
// client began writing the frame that confirmed it.
type churnBlink struct {
	frame int
	lat   time.Duration
}

// churn drives connections over net.Pipe into ingest.ServeStream and a
// Manager: hello, a script with one sequence gap, drain, close.
type churn struct {
	cfg     *config
	c       *corpus
	scripts []*script
	mgr     *session.Manager
	tr      *tracer
	addr    uint32

	mu    sync.Mutex
	conns map[string]*conn
	next  int
}

// churnScripts cuts n connection scripts of frames frames each from the
// corpus, each with a gap of gapLen sequence numbers at a seed-derived
// point after cold-start selection.
func churnScripts(c *corpus, rng *rand.Rand, n, frames, gapLen int) ([]*script, error) {
	out := make([]*script, n)
	for i := range out {
		ci := rng.Intn(len(c.caps))
		gapAt := frames*2/5 + rng.Intn(frames*2/5)
		s, err := c.gapScript(ci, rng.Intn(c.caps[ci].n-frames+1), frames, gapAt, gapLen)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func newChurn(cfg *config, c *corpus, scripts []*script, addr uint32, tr *tracer) (*churn, error) {
	ch := &churn{cfg: cfg, c: c, scripts: scripts, tr: tr, addr: addr, conns: make(map[string]*conn)}
	mgr, err := session.NewManager(session.Config{
		NumBins:   numBins,
		FrameRate: frameRate,
		OnBlink:   ch.onBlink,
	})
	if err != nil {
		return nil, err
	}
	ch.mgr = mgr
	return ch, nil
}

func (ch *churn) lookup(id string) *conn {
	ch.mu.Lock()
	cn := ch.conns[id]
	ch.mu.Unlock()
	return cn
}

func (ch *churn) onBlink(id string, ev blinkradar.BlinkEvent) {
	now := time.Now()
	cn := ch.lookup(id)
	if _, ok := cn.sc.ref.match(ev, cn.matched); ok {
		cn.nmatch++
	} else {
		cn.diverged++
	}
	at, ok := cn.sc.ref.trigger(ev)
	if !ok || cn.sendAt[at].IsZero() || cn.sendAt[at].After(now) {
		return
	}
	cn.blinks = append(cn.blinks, churnBlink{frame: at, lat: now.Sub(cn.sendAt[at])})
	ch.tr.callback(spBlink, now, reqID(cn.idx, at))
}

func (ch *churn) onDetach(id string, st session.SessionStats) {
	cn := ch.lookup(id)
	cn.end = time.Now()
	cn.stats = st
	cn.detached = true
}

// flowWindow bounds how far the client runs ahead of the session's
// worker, so a flat-out client never overflows the 64-frame session
// queue (a drop would be the benchmark's fault, not the program's).
const flowWindow = 32

// run is one connection, start to finish, on the calling goroutine
// plus the ServeStream goroutine it starts and joins.
func (ch *churn) run(ctx context.Context, rec *recorder, sl *sleeper) (*conn, error) {
	ch.mu.Lock()
	idx := ch.next
	ch.next++
	cn := &conn{idx: idx, sc: ch.scripts[idx%len(ch.scripts)], id: fmt.Sprintf("10.%d.%d.%d:%d",
		byte(ch.addr>>16), byte(ch.addr>>8), byte(ch.addr), 1024+idx)}
	cn.sendAt = make([]time.Time, cn.sc.n)
	cn.matched = make([]bool, len(cn.sc.ref.events))
	ch.conns[cn.id] = cn
	ch.mu.Unlock()

	cli, srv := net.Pipe()
	done := make(chan error, 1)
	cn.start = time.Now()
	go func() {
		done <- ingest.ServeStream(ctx, addrConn{srv, pipeAddr(cn.id)}, ch.mgr, ingest.Options{
			NumBins:      numBins,
			HelloTimeout: 10 * time.Second, // ServeStream applies no default
			OnDetach:     ch.onDetach,
		})
	}()
	werr := ch.send(cli, cn, sl, rec != nil)
	cli.Close()
	serr := <-done
	if sp := rec.begin(spConn, -1, reqID(idx, 0)); sp >= 0 && cn.detached {
		rec.spans[sp].start = int64(cn.start.Sub(ch.tr.epoch))
		rec.spans[sp].end = int64(cn.end.Sub(ch.tr.epoch))
	}
	ch.mu.Lock()
	delete(ch.conns, cn.id)
	ch.mu.Unlock()
	if werr != nil {
		return cn, werr
	}
	if serr != nil && !errors.Is(serr, io.EOF) {
		return cn, serr
	}
	return cn, nil
}

// send writes the hello and every frame, then waits until the session
// has processed them all: Detach discards frames still queued.
func (ch *churn) send(cli net.Conn, cn *conn, sl *sleeper, traced bool) error {
	if _, err := cli.Write(ch.c.helloWire); err != nil {
		return fmt.Errorf("write hello: %w", err)
	}
	n := cn.sc.n
	if traced {
		cn.flowWait = make([]float64, n)
	}
	processed := 0
	var wrote time.Time
	for k := 0; k < n; k++ {
		var t0 time.Time
		if traced {
			t0 = time.Now()
			if k > 0 {
				cn.clientSelf += t0.Sub(wrote)
			}
		}
		if k-processed >= flowWindow {
			processed = ch.waitProcessed(cn.id, k-flowWindow+1, sl)
		}
		cn.sendAt[k] = time.Now()
		if traced {
			cn.flowWait[k] = float64(cn.sendAt[k].Sub(t0)) / 1e6
		}
		if _, err := cli.Write(cn.sc.wire[k*frameBytes : (k+1)*frameBytes]); err != nil {
			return fmt.Errorf("write frame %d: %w", k, err)
		}
		if traced {
			wrote = time.Now()
		}
	}
	ch.waitProcessed(cn.id, n, sl)
	return nil
}

// waitProcessed yields, then sleeps in 20-us steps, until the session
// has processed at least want frames, and returns the count it saw. The
// timerfd sleeper keeps those steps short when the process is idle,
// where time.Sleep would round them up to a millisecond.
func (ch *churn) waitProcessed(id string, want int, sl *sleeper) int {
	for i := 0; ; i++ {
		st, err := ch.mgr.SessionStats(id)
		if err != nil {
			return want // detached: ServeStream reports why
		}
		if done := int(st.Processed + st.Dropped); done >= want {
			return done
		}
		if i < 64 {
			runtime.Gosched()
		} else if err := sl.until(time.Now().Add(20 * time.Microsecond)); err != nil {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// check folds one finished connection into the result: one attempted
// operation, failed if it errored, was mis-accounted or delivered any
// event that differs from the reference.
func (ch *churn) check(res *result, cn *conn, err error) {
	res.attempted++
	if err != nil {
		res.fail("connection %s: %v", cn.id, err)
		return
	}
	st, n := cn.stats, uint64(cn.sc.n)
	if !cn.detached || st.Submitted != n || st.Processed != n || st.Dropped != 0 || st.Limited != 0 ||
		st.GapFrames != uint64(cn.sc.gapLen) || st.AssessErrs != 0 {
		res.fail("connection %s accounting: detached %v submitted %d processed %d dropped %d limited %d gaps %d errors %d, sent %d with gap %d",
			cn.id, cn.detached, st.Submitted, st.Processed, st.Dropped, st.Limited, st.GapFrames, st.AssessErrs, n, cn.sc.gapLen)
		return
	}
	if want := cn.sc.ref.expected(cn.sc.n); cn.diverged+want-cn.nmatch > 0 {
		res.fail("connection %s: %d events not in the reference, %d of %d reference events missing", cn.id, cn.diverged, want-cn.nmatch, want)
	}
}

// churnStats is what one closed-loop phase measured.
type churnStats struct {
	conns, frames int
	wall, cpu     time.Duration
	rt            rtDelta
	lat           []float64 // ms

	// Traced phases only.
	blinks     []tracedBlink
	backlogSum uint64 // Manager.Stats().Queued at each connection start
	flowWait   []float64
	clientSelf time.Duration
}

// tracedBlink is a churn event with what its queue-wait estimate needs.
type tracedBlink struct {
	latMS float64
	sc    *script
	frame int
}

// loop runs `loops` concurrent connection loops until the deadline (or
// `count` connections per loop when count > 0).
func (ch *churn) loop(res *result, loops, count int, d time.Duration, traced bool) churnStats {
	var st churnStats
	runtime.GC()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cpu0, rt0 := processCPU(), readRuntime()
	t0 := time.Now()
	deadline := t0.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for l := 0; l < loops; l++ {
		var rec *recorder
		if traced {
			rec = ch.tr.recorder()
		}
		sl, err := newSleeper()
		if err != nil {
			res.fail("connection loop: %v", err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sl.close()
			for i := 0; count == 0 || i < count; i++ {
				if count == 0 && !time.Now().Before(deadline) {
					return
				}
				var queued uint64
				if traced {
					queued = ch.mgr.Stats().Queued
				}
				cn, err := ch.run(ctx, rec, sl)
				mu.Lock()
				ch.check(res, cn, err)
				st.conns++
				st.frames += cn.sc.n
				for _, b := range cn.blinks {
					ms := float64(b.lat) / 1e6
					st.lat = append(st.lat, ms)
					if traced {
						st.blinks = append(st.blinks, tracedBlink{ms, cn.sc, b.frame})
					}
				}
				if traced {
					st.backlogSum += queued
					st.flowWait = append(st.flowWait, cn.flowWait...)
					st.clientSelf += cn.clientSelf
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(t0)
	st.cpu = processCPU() - cpu0
	st.rt = runtimeDelta(rt0, readRuntime())
	return st
}

// runChurn is the reconnect-churn workload.
func runChurn(cfg *config, c *corpus, res *result) error {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x636875726e))
	scripts, err := churnScripts(c, rng, cfg.churnScripts, churnFrames, churnGap)
	if err != nil {
		return err
	}
	res.fingerprint = fingerprint(c, scripts)
	if err := computeReferences(scripts, cfg.trace); err != nil {
		return err
	}
	if cfg.perturb {
		perturb(scripts)
	}
	addr := rng.Uint32()
	heap0 := liveHeap()

	// Set-up: a Manager and enough connections to fill its session pool
	// and reach steady state, repeated so its median is steady.
	var ch *churn
	var setups []float64
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for r := 0; r < cfg.churnSetups; r++ {
		runtime.GC()
		t0 := time.Now()
		nc, err := newChurn(cfg, c, scripts, addr, tr)
		if err != nil {
			return err
		}
		nc.loop(res, churnLoops, cfg.churnWarmConns, 0, false)
		setups = append(setups, time.Since(t0).Seconds())
		if r < cfg.churnSetups-1 {
			nc.mgr.Close()
			continue
		}
		ch = nc
	}
	defer ch.mgr.Close()
	res.metrics["setup_s"] = median(setups)

	measure := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		st := ch.loop(res, churnLoops, 0, measure, false)
		res.frames = st.frames
		res.gcCycles = st.rt.gcCycles
		res.events = len(st.lat)
		res.metrics["cpu_us_per_frame"] = usPer(st.cpu, st.frames)
		res.metrics["frames_per_s"] = float64(st.frames) / st.wall.Seconds()
		res.metrics["blink_latency_p50_ms"] = quantile(st.lat, 0.50)
		res.latP99 = quantile(st.lat, 0.99)
		res.metrics["heap_kib_per_session"] = heapPer(heap0, churnLoops)
		return nil
	}
	return traceChurn(cfg, res, ch, scripts, measure)
}
