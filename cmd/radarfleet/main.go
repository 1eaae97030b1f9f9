// Command radarfleet is the chaos soak harness: it replays a capture
// corpus across hundreds (or thousands) of concurrent ingest sessions,
// each stream run through its own seeded fault injector and flapped
// (disconnected and reconnected with the production backoff schedule)
// partway through, and emits a machine-readable soak verdict.
//
// The target is embedded: radarfleet starts the same ingest listener
// cmd/radard's -ingest mode uses (internal/ingest on a
// session.Manager), bound to a loopback port, so the soak exercises
// exactly the code path production runs while keeping exact visibility
// into per-session accounting. The verdict checks, per connection:
//
//   - exact loss accounting: every frame the injector emitted, less
//     the late ones the ingest rule discards (a Seq not above the last
//     one sent on the connection: duplicates, reordered stragglers),
//     was accepted by the daemon (Submitted == emitted − late), fed
//     through the detection pipeline (Processed == Submitted), and none
//     were lost to backpressure (Dropped == 0) or rate limiting
//     (Limited == 0);
//   - gap agreement: the sequence gaps the daemon reported upstream
//     (GapFrames) equal a client-side replay of the ingest gap and
//     late rules over the exact frame order sent;
//   - recovery: after the last flap, the session ends back at
//     HealthTracking — every session gets a clean tail of at least
//     ColdStartFrames+slack fault-free frames to converge in;
//
// plus fleet-level totals (injector == client == detector frame
// accounting) and an aggregate replay speed floor (sum of capture
// seconds over wall seconds, default 100x realtime). Any violation
// makes the verdict fail and the process exit nonzero.
//
// Usage:
//
//	radarfleet -corpus a.brc,b.brc -sessions 200 -flaps 2 \
//	    -chaos 'drop=0.02;drop=0.05,burst=3;nan=0.005' [-out verdict.json]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"blinkradar"
	"blinkradar/internal/chaos"
	"blinkradar/internal/core"
	"blinkradar/internal/ingest"
	"blinkradar/internal/iq"
	"blinkradar/internal/session"
	"blinkradar/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("radarfleet: ")
	var (
		corpus     = flag.String("corpus", "", "comma-separated capture files to replay (required)")
		sessions   = flag.Int("sessions", 200, "concurrent replay sessions")
		flaps      = flag.Int("flaps", 1, "forced disconnect/reconnect cycles per session")
		chaosSpecs = flag.String("chaos", "", "semicolon-separated fault specs assigned round-robin, e.g. 'drop=0.02;nan=0.01,dup=0.01' (see internal/chaos.ParseSpec); empty replays clean")
		seed       = flag.Int64("seed", 1, "base rng seed; session i uses seed+i")
		deadline   = flag.Duration("deadline", 2*time.Minute, "soak time budget; exceeding it is a verdict violation")
		minSpeedup = flag.Float64("min-speedup", 100, "aggregate replay speed floor: sum of capture seconds over wall seconds")
		slack      = flag.Int("slack", 10, "clean frames beyond ColdStartFrames each session gets after its last flap")
		out        = flag.String("out", "", "also write the verdict JSON to this file")

		shards = flag.Int("shards", 0, "manager worker shards (0 = GOMAXPROCS)")
		queue  = flag.Int("queue", 256, "per-session frame-queue depth")
		window = flag.Float64("window", 60, "assessment window in seconds")
	)
	flag.Parse()
	if *corpus == "" {
		log.Fatal("-corpus is required (generate captures with radarsim)")
	}

	v, err := runSoak(soakConfig{
		CorpusPaths: strings.Split(*corpus, ","),
		Sessions:    *sessions,
		Flaps:       *flaps,
		ChaosSpecs:  *chaosSpecs,
		Seed:        *seed,
		Deadline:    *deadline,
		MinSpeedup:  *minSpeedup,
		Slack:       *slack,
		Shards:      *shards,
		QueueFrames: *queue,
		WindowSec:   *window,
		Logger:      log.Default(),
	})
	if err != nil {
		log.Fatal(err)
	}
	data, merr := json.MarshalIndent(v, "", "  ")
	if merr != nil {
		log.Fatal(merr)
	}
	fmt.Println(string(data))
	if *out != "" {
		if werr := os.WriteFile(*out, append(data, '\n'), 0o644); werr != nil {
			log.Fatal(werr)
		}
	}
	if !v.Pass {
		os.Exit(1)
	}
}

// soakConfig parameterises one soak run; runSoak is the whole harness
// behind the flag surface so tests drive it in-process.
type soakConfig struct {
	CorpusPaths []string
	Sessions    int
	Flaps       int
	ChaosSpecs  string // semicolon-separated; "" = clean replay
	Seed        int64
	Deadline    time.Duration
	MinSpeedup  float64
	Slack       int
	Shards      int
	QueueFrames int
	WindowSec   float64
	Logger      *log.Logger
}

// Verdict is the machine-readable soak outcome. Every violation is a
// human-readable sentence naming the session and check that failed;
// Pass is true iff there are none.
type Verdict struct {
	Pass        bool `json:"pass"`
	Sessions    int  `json:"sessions"`
	Connections int  `json:"connections"`

	// Frame accounting, summed over all sessions. Emitted counts what
	// the clients sent after fault injection and Late the frames among
	// them the ingest rule discards; Accepted/Processed/Dropped/Limited
	// are the manager's fleet totals. A green soak has
	// Emitted − Late == Accepted == Processed and zero Dropped/Limited.
	FramesEmitted   uint64 `json:"frames_emitted"`
	FramesLate      uint64 `json:"frames_late"`
	FramesAccepted  uint64 `json:"frames_accepted"`
	FramesProcessed uint64 `json:"frames_processed"`
	FramesDropped   uint64 `json:"frames_dropped"`
	FramesLimited   uint64 `json:"frames_limited"`

	// Gap agreement: what the clients' replay of the ingest gap and
	// late rules predicts vs what the sessions reported via NoteGap.
	GapFramesExpected uint64 `json:"gap_frames_expected"`
	GapFramesSeen     uint64 `json:"gap_frames_seen"`

	// Recovered counts sessions whose final connection ended at
	// HealthTracking; a green soak recovers every session.
	Recovered int `json:"sessions_recovered"`

	// Throughput: capture time replayed per wall second.
	CaptureSeconds float64 `json:"capture_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	Speedup        float64 `json:"speedup"`
	MinSpeedup     float64 `json:"min_speedup"`
	StreamsPerCore float64 `json:"streams_per_core"`

	// Violations lists up to maxViolations failures verbatim;
	// ViolationsTotal is the uncapped count.
	Violations      []string `json:"violations"`
	ViolationsTotal int      `json:"violations_total"`
}

// maxViolations caps the verdict's violation list so a systemic
// failure across thousands of sessions stays readable.
const maxViolations = 50

// corpusEntry is one pre-loaded capture: frames are decoded once and
// shared read-only by every session replaying this file.
type corpusEntry struct {
	path    string
	hello   transport.StreamHello
	frames  []transport.Frame
	seconds float64
}

// sessionResult is one pump goroutine's accounting.
type sessionResult struct {
	emitted        uint64
	late           uint64
	expectedGaps   uint64
	seenGaps       uint64
	captureSeconds float64
	connections    int
	recovered      bool
	violations     []string
}

func runSoak(cfg soakConfig) (Verdict, error) {
	if cfg.Sessions <= 0 {
		return Verdict{}, fmt.Errorf("sessions must be positive, got %d", cfg.Sessions)
	}
	if cfg.Flaps < 0 {
		return Verdict{}, fmt.Errorf("flaps must be non-negative, got %d", cfg.Flaps)
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 2 * time.Minute
	}
	if cfg.QueueFrames < 130 {
		// The throttle holds each connection's outstanding frames at
		// half the queue and can overshoot by at most 65 before the next
		// check; any shallower queue could fill and drop.
		cfg.QueueFrames = 130
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(os.Stderr, "radarfleet: ", 0)
	}

	corpus, err := loadCorpus(cfg.CorpusPaths, cfg.Logger)
	if err != nil {
		return Verdict{}, err
	}
	specs, err := parseChaosSpecs(cfg.ChaosSpecs)
	if err != nil {
		return Verdict{}, err
	}

	tail := core.ColdStartFrames + cfg.Slack
	for _, c := range corpus {
		if need := tail + cfg.Flaps + 1; len(c.frames) < need {
			return Verdict{}, fmt.Errorf("capture %s has %d frames; %d flaps with a %d-frame recovery tail needs at least %d",
				c.path, len(c.frames), cfg.Flaps, tail, need)
		}
	}

	hello := corpus[0].hello
	mgr, err := session.NewManager(session.Config{
		NumBins:     int(hello.NumBins),
		FrameRate:   hello.FrameRate,
		WindowSec:   cfg.WindowSec,
		Shards:      cfg.Shards,
		QueueFrames: cfg.QueueFrames,
	})
	if err != nil {
		return Verdict{}, err
	}
	defer mgr.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Verdict{}, err
	}
	addr := ln.Addr().String()

	// The collector receives each session's final accounting as its
	// connection detaches; pump goroutines poll it by session ID (the
	// client's local address, which is the server's view of the remote).
	col := &collector{stats: make(map[string]session.SessionStats)}

	serveCtx, stopServe := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- ingest.Serve(serveCtx, ln, mgr, ingest.Options{
			NumBins:  int(hello.NumBins),
			OnDetach: col.put,
		})
	}()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Deadline)
	defer cancel()

	cfg.Logger.Printf("soaking %d sessions x %d flaps against %s (%d captures, %d specs, seed %d, deadline %s)",
		cfg.Sessions, cfg.Flaps, addr, len(corpus), len(specs), cfg.Seed, cfg.Deadline)

	start := time.Now()
	results := make([]sessionResult, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		p := &pump{
			idx:   i,
			entry: corpus[i%len(corpus)],
			mgr:   mgr,
			col:   col,
			addr:  addr,
			flaps: cfg.Flaps,
			tail:  tail,
			queue: cfg.QueueFrames,
			rng:   rand.New(rand.NewSource(cfg.Seed + int64(i))),
			boff:  transport.Backoff{}.WithDefaults(),
		}
		if len(specs) > 0 {
			sc := specs[i%len(specs)]
			sc.Seed = cfg.Seed + int64(i)
			if sc.Enabled() {
				inj, ierr := chaos.New(sc)
				if ierr != nil {
					stopServe()
					<-serveDone
					return Verdict{}, ierr
				}
				p.inj = inj
			}
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.run(ctx)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	stopServe()
	if serr := <-serveDone; serr != nil && !errors.Is(serr, context.Canceled) {
		cfg.Logger.Printf("ingest listener: %v", serr)
	}

	return buildVerdict(cfg, mgr, results, wall), nil
}

// buildVerdict folds the per-session results and the manager's fleet
// totals into the soak outcome.
func buildVerdict(cfg soakConfig, mgr *session.Manager, results []sessionResult, wall time.Duration) Verdict {
	v := Verdict{
		Sessions:       len(results),
		WallSeconds:    wall.Seconds(),
		MinSpeedup:     cfg.MinSpeedup,
		StreamsPerCore: float64(len(results)) / float64(runtime.NumCPU()),
	}
	var violations []string
	for _, r := range results {
		v.Connections += r.connections
		v.FramesEmitted += r.emitted
		v.FramesLate += r.late
		v.GapFramesExpected += r.expectedGaps
		v.GapFramesSeen += r.seenGaps
		v.CaptureSeconds += r.captureSeconds
		if r.recovered {
			v.Recovered++
		}
		violations = append(violations, r.violations...)
	}

	st := mgr.Stats()
	v.FramesAccepted = st.Frames
	v.FramesProcessed = st.Processed
	v.FramesDropped = st.Dropped
	v.FramesLimited = st.Limited
	if st.Sessions != 0 {
		violations = append(violations, fmt.Sprintf("fleet: %d sessions still attached after soak", st.Sessions))
	}
	if st.Frames != v.FramesEmitted-v.FramesLate {
		violations = append(violations, fmt.Sprintf("fleet: clients emitted %d frames (%d late) but the manager accounted %d",
			v.FramesEmitted, v.FramesLate, st.Frames))
	}
	if st.Processed+st.Dropped != st.Frames {
		violations = append(violations, fmt.Sprintf("fleet: processed %d + dropped %d != accepted %d", st.Processed, st.Dropped, st.Frames))
	}

	if v.WallSeconds > 0 {
		v.Speedup = v.CaptureSeconds / v.WallSeconds
	}
	if cfg.MinSpeedup > 0 && v.Speedup < cfg.MinSpeedup {
		violations = append(violations, fmt.Sprintf("fleet: replayed %.0f capture seconds in %.1f wall seconds (%.0fx), below the %.0fx floor",
			v.CaptureSeconds, v.WallSeconds, v.Speedup, cfg.MinSpeedup))
	}

	v.ViolationsTotal = len(violations)
	if len(violations) > maxViolations {
		violations = append(violations[:maxViolations],
			fmt.Sprintf("... %d more violations elided", v.ViolationsTotal-maxViolations))
	}
	v.Violations = violations
	v.Pass = v.ViolationsTotal == 0
	return v
}

// parseChaosSpecs splits the semicolon-separated spec list.
func parseChaosSpecs(s string) ([]chaos.Config, error) {
	if s == "" {
		return nil, nil
	}
	var specs []chaos.Config
	for _, one := range strings.Split(s, ";") {
		one = strings.TrimSpace(one)
		if one == "" {
			continue
		}
		c, err := chaos.ParseSpec(one)
		if err != nil {
			return nil, err
		}
		specs = append(specs, c)
	}
	return specs, nil
}

// loadCorpus decodes every capture up front so replay touches no disk.
// Torn captures are served from their intact prefix, like radard; all
// entries must share one geometry because the soak target is a single
// manager.
func loadCorpus(paths []string, logger *log.Logger) ([]corpusEntry, error) {
	if len(paths) == 0 {
		return nil, errors.New("empty corpus")
	}
	var corpus []corpusEntry
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		e, err := loadCapture(path, logger)
		if err != nil {
			return nil, err
		}
		if len(corpus) > 0 && (e.hello.NumBins != corpus[0].hello.NumBins || e.hello.FrameRate != corpus[0].hello.FrameRate) {
			return nil, fmt.Errorf("capture %s (%d bins at %g fps) does not match %s (%d bins at %g fps): the soak manager pins one geometry",
				path, e.hello.NumBins, e.hello.FrameRate,
				corpus[0].path, corpus[0].hello.NumBins, corpus[0].hello.FrameRate)
		}
		corpus = append(corpus, e)
	}
	if len(corpus) == 0 {
		return nil, errors.New("empty corpus")
	}
	return corpus, nil
}

func loadCapture(path string, logger *log.Logger) (corpusEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return corpusEntry{}, err
	}
	defer f.Close()
	cr, err := transport.NewCaptureReader(f)
	if err != nil {
		return corpusEntry{}, fmt.Errorf("read capture %s: %w", path, err)
	}
	if terr := cr.Truncated(); terr != nil {
		logger.Printf("capture %s does not end cleanly (%v); replaying its %d intact frames", path, terr, cr.NumFrames())
	}
	e := corpusEntry{
		path:   path,
		hello:  cr.Header().Hello,
		frames: make([]transport.Frame, 0, cr.NumFrames()),
	}
	if err := cr.Seek(0); err != nil {
		return corpusEntry{}, err
	}
	for i := 0; i < cr.NumFrames(); i++ {
		fr, err := cr.Next()
		if err != nil {
			return corpusEntry{}, fmt.Errorf("capture %s frame %d: %w", path, i, err)
		}
		// Next reuses its planes, and the injector and encoder take
		// complex frames: widen each frame once, into owned bins.
		e.frames = append(e.frames, transport.Frame{
			Seq:             fr.Seq,
			TimestampMicros: fr.TimestampMicros,
			Bins:            iq.Planes32{I: fr.I, Q: fr.Q}.ToComplex(make([]complex128, len(fr.I))),
		})
	}
	e.seconds = float64(len(e.frames)) / e.hello.FrameRate
	return e, nil
}

// pump replays one session: its capture split into flaps+1 connection
// segments, frames run through the session's fault injector, with a
// backoff-jittered outage between connections and exact client-side
// accounting checked against the daemon's detach stats after every
// segment.
type pump struct {
	idx   int
	entry corpusEntry
	mgr   *session.Manager
	col   *collector
	addr  string
	flaps int
	tail  int
	queue int
	rng   *rand.Rand
	boff  transport.Backoff
	inj   *chaos.Injector
}

func (p *pump) run(ctx context.Context) sessionResult {
	res := sessionResult{captureSeconds: p.entry.seconds}
	frames := p.entry.frames
	// Cut points: flaps evenly spaced across the pre-tail region, so
	// the final segment always keeps at least the clean recovery tail.
	usable := len(frames) - p.tail
	bounds := make([]int, 0, p.flaps+2)
	bounds = append(bounds, 0)
	for j := 1; j <= p.flaps; j++ {
		cut := j * usable / (p.flaps + 1)
		if cut <= bounds[len(bounds)-1] {
			res.violations = append(res.violations,
				fmt.Sprintf("session %d: capture %s too short to flap %d times", p.idx, p.entry.path, p.flaps))
			return res
		}
		bounds = append(bounds, cut)
	}
	bounds = append(bounds, len(frames))
	// Faults stop at the tail boundary so the last tail frames arrive
	// clean and in order, whatever the spec says.
	stopIdx := len(frames) - p.tail

	for seg := 0; seg+1 < len(bounds); seg++ {
		if seg > 0 {
			// The flap outage: the production reconnect schedule's
			// initial delay, jittered per connection.
			sleepCtx(ctx, p.boff.Jittered(p.boff.Initial, p.rng))
		}
		final := seg+2 == len(bounds)
		if !p.segment(ctx, &res, bounds[seg], bounds[seg+1], stopIdx, final) {
			return res
		}
	}
	if p.inj != nil {
		// Injector self-check: everything it emitted (plus the clean
		// tail sent around it) must equal what the client counted.
		st := p.inj.Stats()
		if want := st.Emitted + uint64(p.tail); want != res.emitted {
			res.violations = append(res.violations,
				fmt.Sprintf("session %d: injector emitted %d + %d clean tail frames but the client sent %d",
					p.idx, st.Emitted, p.tail, res.emitted))
		}
	}
	return res
}

// segment runs one connection: dial, hello, inject-and-send, drain,
// close, then reconcile the daemon's detach accounting. It reports
// whether the session should continue to its next segment.
func (p *pump) segment(ctx context.Context, res *sessionResult, lo, hi, stopIdx int, final bool) bool {
	fail := func(format string, args ...any) bool {
		res.violations = append(res.violations,
			fmt.Sprintf("session %d conn %d: %s", p.idx, res.connections, fmt.Sprintf(format, args...)))
		return false
	}

	conn, err := p.dial(ctx)
	if err != nil {
		return fail("dial: %v", err)
	}
	defer conn.Close()
	res.connections++
	id := conn.LocalAddr().String()
	if err := transport.EncodeHello(conn, p.entry.hello); err != nil {
		return fail("hello: %v", err)
	}
	enc := transport.NewEncoder(conn)

	// Client-side replay of the ingest gap and late rules, reset per
	// connection exactly like the server's per-session decoder state.
	var lastSeq uint64
	haveSeq := false
	var emitted, late, expGaps, sinceThrottle uint64
	send := func(f transport.Frame) error {
		if haveSeq && f.Seq <= lastSeq {
			late++
		} else {
			if haveSeq && f.Seq > lastSeq+1 {
				expGaps += f.Seq - lastSeq - 1
			}
			lastSeq, haveSeq = f.Seq, true
		}
		emitted++
		sinceThrottle++
		return enc.Encode(f)
	}

	for k := lo; k < hi; k++ {
		f := p.entry.frames[k]
		switch {
		case p.inj == nil || k > stopIdx:
			if err := send(f); err != nil {
				return fail("frame %d: %v", k, err)
			}
		case k == stopIdx:
			// Tail boundary: release anything the injector still holds,
			// then bypass it so the recovery tail is untouched.
			for _, out := range p.inj.Flush() {
				if err := send(out); err != nil {
					return fail("flush: %v", err)
				}
			}
			if err := send(f); err != nil {
				return fail("frame %d: %v", k, err)
			}
		default:
			for _, out := range p.inj.Apply(f) {
				if err := send(out); err != nil {
					return fail("frame %d: %v", k, err)
				}
			}
		}
		if sinceThrottle >= 64 {
			sinceThrottle = 0
			if err := p.throttle(ctx, enc, id, emitted-late); err != nil {
				return fail("throttle: %v", err)
			}
		}
	}
	if err := enc.Flush(); err != nil {
		return fail("flush: %v", err)
	}
	res.emitted += emitted
	res.late += late
	res.expectedGaps += expGaps

	// Drain before disconnecting: a flap must not race the queue, or
	// Detach folds still-queued frames into Dropped and the loss
	// accounting can no longer distinguish a bug from the race.
	if err := p.drain(ctx, id, emitted-late); err != nil {
		return fail("drain: %v", err)
	}
	conn.Close()
	st, ok := p.col.wait(ctx, id)
	if !ok {
		return fail("no detach stats for %s before deadline", id)
	}
	res.seenGaps += st.GapFrames

	if st.Submitted != emitted-late {
		fail("sent %d frames (%d late), daemon submitted %d", emitted, late, st.Submitted)
	}
	if st.Dropped != 0 {
		fail("%d frames dropped to backpressure", st.Dropped)
	}
	if st.Limited != 0 {
		fail("%d frames rate-limited", st.Limited)
	}
	if st.Processed+st.Dropped != st.Submitted {
		fail("processed %d + dropped %d != submitted %d", st.Processed, st.Dropped, st.Submitted)
	}
	if st.GapFrames != expGaps {
		fail("daemon saw %d gap frames, client replay expected %d", st.GapFrames, expGaps)
	}
	if final {
		if st.Health == blinkradar.HealthTracking {
			res.recovered = true
		} else {
			fail("ended %v after %d clean tail frames, want tracking", st.Health, p.tail)
		}
	}
	// Accounting violations are recorded but do not abort the session:
	// later segments may still reveal more.
	return ctx.Err() == nil
}

// dial connects with the production backoff schedule; repeated refusals
// surface as an error once the context expires.
func (p *pump) dial(ctx context.Context) (net.Conn, error) {
	d := net.Dialer{}
	delay := p.boff.Initial
	for {
		conn, err := d.DialContext(ctx, "tcp", p.addr)
		if err == nil {
			return conn, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sleepCtx(ctx, p.boff.Jittered(delay, p.rng))
		delay = p.boff.Next(delay)
	}
}

// throttle flushes buffered frames and, when too much of this
// connection's output is still unprocessed, waits for the daemon to
// catch up. The bound counts queued frames plus in-order frames still
// in the socket (inOrder − Submitted; late frames never reach the
// queue): between throttle points at most 65 more frames can be sent,
// so holding the outstanding total at half the queue keeps the
// session's queue from ever filling — which would drop frames and make
// real loss indistinguishable from self-inflicted backpressure.
func (p *pump) throttle(ctx context.Context, enc *transport.Encoder, id string, inOrder uint64) error {
	if err := enc.Flush(); err != nil {
		return err
	}
	high := uint64(p.queue / 2)
	for {
		st, err := p.mgr.SessionStats(id)
		switch {
		case errors.Is(err, session.ErrSessionNotFound):
			// The server has not read our hello and attached yet; the
			// frames are parked in the socket. Wait for admission.
		case err != nil:
			return err
		case st.Queued+(inOrder-st.Submitted) <= high:
			return nil
		}
		if !sleepCtx(ctx, 200*time.Microsecond) {
			return ctx.Err()
		}
	}
}

// drain waits until the daemon has accepted and fully processed every
// in-order frame this connection sent, so closing it cannot lose queued
// work.
func (p *pump) drain(ctx context.Context, id string, inOrder uint64) error {
	for {
		st, err := p.mgr.SessionStats(id)
		switch {
		case errors.Is(err, session.ErrSessionNotFound):
			// Not attached yet (hello still in flight) — keep waiting.
		case err != nil:
			return err
		case st.Submitted >= inOrder && st.Queued == 0:
			return nil
		}
		if !sleepCtx(ctx, 200*time.Microsecond) {
			return fmt.Errorf("deadline with %d frames expected, session state %+v (%v)", inOrder, st, err)
		}
	}
}

// sleepCtx sleeps for d or until ctx is done, reporting whether the
// full sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// collector gathers each session's final accounting from the ingest
// listener's OnDetach hook; pumps poll for their connection's entry.
type collector struct {
	mu    sync.Mutex
	stats map[string]session.SessionStats
}

func (c *collector) put(id string, st session.SessionStats) {
	c.mu.Lock()
	c.stats[id] = st
	c.mu.Unlock()
}

// wait polls for the detach stats of id until ctx expires. The entry is
// removed once claimed, so a recycled ephemeral port cannot read a
// predecessor's accounting.
func (c *collector) wait(ctx context.Context, id string) (session.SessionStats, bool) {
	for {
		c.mu.Lock()
		st, ok := c.stats[id]
		if ok {
			delete(c.stats, id)
		}
		c.mu.Unlock()
		if ok {
			return st, true
		}
		if !sleepCtx(ctx, time.Millisecond) {
			return session.SessionStats{}, false
		}
	}
}
