package transport

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"blinkradar/internal/obs"
)

// Backoff parameterises the reconnect schedule: exponential growth
// from Initial to Max with ±Jitter fractional randomisation so a fleet
// of monitors does not hammer a restarting daemon in lockstep.
type Backoff struct {
	// Initial is the delay after the first failure (default 200 ms).
	Initial time.Duration
	// Max caps the delay (default 5 s).
	Max time.Duration
	// Multiplier grows the delay per consecutive failure (default 2).
	Multiplier float64
	// Jitter is the fractional randomisation of each delay in [0, 1)
	// (default 0.2, i.e. ±20%).
	Jitter float64
}

// WithDefaults fills unset fields with the production schedule:
// 200 ms initial, 5 s cap, doubling, ±20% jitter.
func (b Backoff) WithDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 200 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 5 * time.Second
	}
	if b.Multiplier < 1 {
		b.Multiplier = 2
	}
	if b.Jitter < 0 || b.Jitter >= 1 {
		b.Jitter = 0.2
	}
	return b
}

// Next grows one delay toward the cap. The progression is
// deterministic; randomisation happens per-sleep in Jittered.
func (b Backoff) Next(d time.Duration) time.Duration {
	next := time.Duration(float64(d) * b.Multiplier)
	if next > b.Max {
		next = b.Max
	}
	return next
}

// Jittered randomises d by ±Jitter using rng (nil returns d unchanged,
// as does a zero Jitter). Callers own the rng's synchronisation.
func (b Backoff) Jittered(d time.Duration, rng *rand.Rand) time.Duration {
	if b.Jitter <= 0 || rng == nil {
		return d
	}
	return time.Duration(float64(d) * (1 - b.Jitter + 2*b.Jitter*rng.Float64()))
}

// ReconnectConfig tunes a ReconnectingClient. The zero value is usable:
// default backoff, a 3 s per-attempt dial timeout, and unlimited
// retries.
type ReconnectConfig struct {
	// Backoff is the reconnect schedule.
	Backoff Backoff
	// DialTimeout bounds each connection attempt, hello included
	// (default 3 s).
	DialTimeout time.Duration
	// ReadTimeout bounds each frame read once connected: a server that
	// stalls longer than this fails the stream and triggers a
	// reconnect, instead of the client hanging on a dead but unclosed
	// connection. Zero disables the deadline.
	ReadTimeout time.Duration
	// Resync makes each connection skip corrupt frames in-stream (see
	// Decoder.EnableResync) instead of failing the stream and paying a
	// full reconnect per damaged packet. Skipped frames surface as
	// sequence gaps.
	Resync bool
	// MaxConsecutiveFailures aborts Run after this many dial failures
	// in a row with the last error; 0 retries forever.
	MaxConsecutiveFailures int
	// OnSeqGap, when non-nil, runs on the Run goroutine whenever a
	// forward sequence discontinuity is observed, with the number of
	// frames lost. Consumers use it to tell their pipeline about the
	// gap (e.g. core.Detector.NoteGap) so slow-time state is not
	// silently concatenated across it. Epoch resets (sequence moving
	// backwards across a reconnect) and late frames do not fire it: no
	// loss can be attributed to either.
	OnSeqGap func(missed uint64)
	// OnConnect, when non-nil, runs after every successful dial with
	// the announced geometry and whether this is a reconnect. A non-nil
	// error aborts Run.
	OnConnect func(hello StreamHello, reconnected bool) error
	// OnHelloChange, when non-nil, runs before OnConnect whenever a
	// reconnect announces a different stream geometry (the daemon came
	// back with another capture or radio config). A non-nil error
	// aborts Run; consumers typically rebuild their pipeline here.
	OnHelloChange func(prev, next StreamHello) error
	// Rand, when non-nil, supplies the backoff jitter, making the
	// reconnect schedule reproducible — chaos and soak tests seed it so
	// a failing run can be replayed exactly. Nil (the default) keeps an
	// entropy-seeded source, which production wants: deterministic
	// jitter across a fleet defeats its whole purpose. The client
	// serialises access; the *rand.Rand must not be shared with other
	// concurrent users.
	Rand *rand.Rand
	// Logger receives reconnect diagnostics; nil discards them.
	Logger *log.Logger
	// Registry, when non-nil, exports reconnect metrics.
	Registry *obs.Registry
}

// ReconnectStats is a point-in-time view of a ReconnectingClient's
// lifetime accounting.
type ReconnectStats struct {
	// Connects counts successful dials (including the first).
	Connects uint64
	// Reconnects counts successful dials after the first.
	Reconnects uint64
	// DialFailures counts failed connection attempts.
	DialFailures uint64
	// SeqGaps counts forward discontinuities in Frame.Seq, within a
	// connection or across a reconnect.
	SeqGaps uint64
	// SeqGapFrames totals the frames lost across all gaps.
	SeqGapFrames uint64
	// EpochResets counts connections whose first frame stepped the
	// sequence backwards — the daemon restarted its counter, so no loss
	// can be attributed. That frame is delivered.
	EpochResets uint64
	// LateFrames counts frames discarded because, within a connection,
	// their Seq was not above the last delivered one (duplicates and
	// reordered stragglers). Their holes were already reported as gaps.
	LateFrames uint64
	// Frames counts frames delivered to the callback.
	Frames uint64
	// Resyncs counts corrupt frames skipped in-stream (Resync mode).
	Resyncs uint64
	// ResyncBytes totals the garbage bytes discarded while realigning.
	ResyncBytes uint64
}

// ReconnectingClient wraps Dial/Run with automatic reconnection so a
// monitor survives a radar daemon restart instead of exiting: the
// in-vehicle deployment expects transient link loss (ignition cycles,
// daemon upgrades) as a matter of course. It is not safe for concurrent
// Run calls; Stats may be read from other goroutines.
type ReconnectingClient struct {
	addr string
	cfg  ReconnectConfig
	rng  *rand.Rand

	mu    sync.Mutex
	stats ReconnectStats
	seq   SeqTracker
	// hello is the last connection's geometry, owned by Run.
	hello StreamHello

	// Metrics (nil-safe no-ops without a registry).
	mReconnects   *obs.Counter
	mDialFailures *obs.Counter
	mSeqGaps      *obs.Counter
	mGapFrames    *obs.Counter
	mEpochResets  *obs.Counter
	mLate         *obs.Counter
	mResyncs      *obs.Counter
	mResyncBytes  *obs.Counter
}

// NewReconnectingClient builds a reconnecting consumer of the radar
// stream at addr. Run does the dialling; nothing connects until then.
func NewReconnectingClient(addr string, cfg ReconnectConfig) *ReconnectingClient {
	cfg.Backoff = cfg.Backoff.WithDefaults()
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(discard{}, "", 0)
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	rc := &ReconnectingClient{
		addr: addr,
		cfg:  cfg,
		rng:  rng,
	}
	if r := cfg.Registry; r != nil {
		rc.mReconnects = r.Counter("transport_reconnects_total")
		rc.mDialFailures = r.Counter("transport_dial_failures_total")
		rc.mSeqGaps = r.Counter("transport_client_seq_gaps_total")
		rc.mGapFrames = r.Counter("transport_client_seq_gap_frames_total")
		rc.mEpochResets = r.Counter("transport_epoch_resets_total")
		rc.mLate = r.Counter("transport_client_late_frames_total")
		rc.mResyncs = r.Counter("transport_client_resyncs_total")
		rc.mResyncBytes = r.Counter("transport_client_resync_bytes_total")
	}
	return rc
}

// Stats returns a snapshot of the lifetime accounting.
func (rc *ReconnectingClient) Stats() ReconnectStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stats
}

// callbackError marks an error raised by the consumer callback, which
// must stop Run rather than trigger a reconnect.
type callbackError struct{ err error }

func (e *callbackError) Error() string { return e.err.Error() }
func (e *callbackError) Unwrap() error { return e.err }

// Run connects and pulls frames, reconnecting with exponential backoff
// whenever the stream drops, until the context is cancelled, fn or a
// geometry callback returns an error, or MaxConsecutiveFailures dial
// attempts fail in a row. Within a connection fn sees strictly
// increasing sequence numbers: late frames are counted and discarded.
// Frames missed in-stream or while disconnected surface in Stats as
// sequence gaps. The frame's planes are valid only during the call.
func (rc *ReconnectingClient) Run(ctx context.Context, fn func(PlaneFrame) error) error {
	backoff := rc.cfg.Backoff.Initial
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		dialCtx, cancel := context.WithTimeout(ctx, rc.cfg.DialTimeout)
		c, err := Dial(dialCtx, rc.addr)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failures++
			rc.mDialFailures.Inc()
			rc.mu.Lock()
			rc.stats.DialFailures++
			rc.mu.Unlock()
			if max := rc.cfg.MaxConsecutiveFailures; max > 0 && failures >= max {
				return fmt.Errorf("transport: giving up after %d failed attempts: %w", failures, err)
			}
			rc.cfg.Logger.Printf("dial %s failed (attempt %d): %v; retrying in %s", rc.addr, failures, err, backoff)
			if err := rc.sleep(ctx, backoff); err != nil {
				return err
			}
			backoff = rc.nextBackoff(backoff)
			continue
		}
		failures = 0
		backoff = rc.cfg.Backoff.Initial

		if rc.cfg.ReadTimeout > 0 {
			c.SetReadTimeout(rc.cfg.ReadTimeout)
		}
		if rc.cfg.Resync {
			c.EnableResync()
		}
		if err := rc.connected(c.Hello()); err != nil {
			c.Close()
			return err
		}

		first := true
		err = c.Run(ctx, func(f PlaneFrame) error {
			deliver := rc.admit(f.Seq, first)
			first = false
			if !deliver {
				return nil
			}
			if err := fn(f); err != nil {
				return &callbackError{err}
			}
			return nil
		})
		rc.harvestResyncs(c)
		c.Close()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var cb *callbackError
		if errors.As(err, &cb) {
			return cb.err
		}
		// Stream error or clean EOF: the daemon went away; reconnect.
		rc.cfg.Logger.Printf("stream from %s ended: %v; reconnecting", rc.addr, err)
	}
}

// connected records a successful dial and fires the geometry callbacks.
func (rc *ReconnectingClient) connected(h StreamHello) error {
	prev := rc.hello
	rc.hello = h
	rc.mu.Lock()
	rc.stats.Connects++
	reconnected := rc.stats.Connects > 1
	changed := reconnected && prev != h
	if reconnected {
		rc.stats.Reconnects++
	}
	if changed {
		// New geometry means the old sequence space is meaningless.
		rc.seq.Reset()
	}
	rc.mu.Unlock()

	if reconnected {
		rc.mReconnects.Inc()
	}
	if changed {
		rc.cfg.Logger.Printf("stream geometry changed: %+v -> %+v", prev, h)
		if rc.cfg.OnHelloChange != nil {
			if err := rc.cfg.OnHelloChange(prev, h); err != nil {
				return err
			}
		}
	}
	if rc.cfg.OnConnect != nil {
		return rc.cfg.OnConnect(h, reconnected)
	}
	return nil
}

// admit applies the sequence rule to one frame (first marks a
// connection's first frame), accounts for the verdict and reports
// whether the frame is delivered.
func (rc *ReconnectingClient) admit(seq uint64, first bool) bool {
	rc.mu.Lock()
	v, gap := rc.seq.Admit(seq, first)
	switch v {
	case SeqGap:
		rc.stats.SeqGaps++
		rc.stats.SeqGapFrames += gap
		rc.mSeqGaps.Inc()
		rc.mGapFrames.Add(gap)
	case SeqEpochReset:
		rc.stats.EpochResets++
		rc.mEpochResets.Inc()
	case SeqLate:
		rc.stats.LateFrames++
		rc.mLate.Inc()
		rc.mu.Unlock()
		return false
	}
	rc.stats.Frames++
	rc.mu.Unlock()
	// Fire outside the lock so the callback may call Stats.
	if gap > 0 && rc.cfg.OnSeqGap != nil {
		rc.cfg.OnSeqGap(gap)
	}
	return true
}

// harvestResyncs folds one connection's resync accounting into the
// lifetime stats when the connection ends.
func (rc *ReconnectingClient) harvestResyncs(c *Client) {
	frames, skipped := c.Resyncs()
	if frames == 0 && skipped == 0 {
		return
	}
	rc.mu.Lock()
	rc.stats.Resyncs += frames
	rc.stats.ResyncBytes += skipped
	rc.mu.Unlock()
	rc.mResyncs.Add(frames)
	rc.mResyncBytes.Add(skipped)
}

// sleep waits for d or the context, whichever comes first.
func (rc *ReconnectingClient) sleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(rc.jittered(d))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// jittered randomises d by ±Jitter under the client's rng lock.
func (rc *ReconnectingClient) jittered(d time.Duration) time.Duration {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.cfg.Backoff.Jittered(d, rc.rng)
}

// nextBackoff grows the delay toward the cap.
func (rc *ReconnectingClient) nextBackoff(d time.Duration) time.Duration {
	return rc.cfg.Backoff.Next(d)
}
