package transport

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"blinkradar/internal/obs"
	"blinkradar/internal/rf"
)

// fastBackoff keeps reconnect tests quick.
func fastBackoff() Backoff {
	return Backoff{Initial: 10 * time.Millisecond, Max: 50 * time.Millisecond, Multiplier: 2, Jitter: 0.2}
}

// listenOn binds addr, retrying briefly: rebinding the port a just-dead
// server held can transiently fail.
func listenOn(t *testing.T, addr string) net.Listener {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReconnectingClientSurvivesServerRestart is the deployment drill:
// kill radard mid-stream, leave the port dead long enough to force
// backoff retries, restart it, and require the client to resume with
// the outage recorded as a sequence gap.
func TestReconnectingClientSurvivesServerRestart(t *testing.T) {
	m := testMatrix(t, 10)
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()

	srcA := NewMatrixSource(m, true, true)
	defer srcA.Close()
	if err := srcA.SetSpeed(20); err != nil { // 500 fps keeps the test fast
		t.Fatal(err)
	}
	serverA := NewServer(srcA, nil)
	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() { doneA <- serverA.Serve(ctxA, ln1) }()

	reg := obs.NewRegistry()
	rc := NewReconnectingClient(addr, ReconnectConfig{
		Backoff:     fastBackoff(),
		DialTimeout: time.Second,
		Registry:    reg,
	})

	var mu sync.Mutex
	var seqs []uint64
	frameArrived := make(chan uint64, 1024)
	clientCtx, cancelClient := context.WithCancel(context.Background())
	defer cancelClient()
	runDone := make(chan error, 1)
	go func() {
		runDone <- rc.Run(clientCtx, func(f PlaneFrame) error {
			mu.Lock()
			seqs = append(seqs, f.Seq)
			mu.Unlock()
			select {
			case frameArrived <- f.Seq:
			default:
			}
			return nil
		})
	}()

	// Phase 1: receive a handful of frames from server A.
	var lastSeq uint64
	deadline := time.After(10 * time.Second)
	for received := 0; received < 5; {
		select {
		case s := <-frameArrived:
			lastSeq = s
			received++
		case <-deadline:
			t.Fatal("timed out waiting for initial frames")
		}
	}

	// Phase 2: kill the daemon and hold the port down so the client
	// accumulates at least one failed dial (backoff retry).
	cancelA()
	if err := <-doneA; !errors.Is(err, context.Canceled) {
		t.Fatalf("server A exit: %v", err)
	}
	waitFor(t, 10*time.Second, func() bool { return rc.Stats().DialFailures >= 1 })

	// Phase 3: restart the daemon on the same port. The new instance
	// resumes its persisted frame counter well past where the client
	// stopped, so the outage shows up as a forward sequence gap.
	ln2 := listenOn(t, addr)
	srcB := NewMatrixSource(m, true, true)
	defer srcB.Close()
	if err := srcB.SetSpeed(20); err != nil {
		t.Fatal(err)
	}
	serverB := NewServer(srcB, nil)
	serverB.SetStartSeq(lastSeq + 100)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	doneB := make(chan error, 1)
	go func() { doneB <- serverB.Serve(ctxB, ln2) }()

	// Phase 4: the stream must resume past the restart point.
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seqs) > 0 && seqs[len(seqs)-1] >= lastSeq+100
	})

	stats := rc.Stats()
	if stats.Reconnects < 1 {
		t.Errorf("reconnects = %d, want >= 1", stats.Reconnects)
	}
	if stats.DialFailures < 1 {
		t.Errorf("dial failures = %d, want >= 1 (backoff never engaged)", stats.DialFailures)
	}
	if stats.SeqGaps < 1 || stats.SeqGapFrames < 1 {
		t.Errorf("seq gaps = %d (%d frames), want >= 1", stats.SeqGaps, stats.SeqGapFrames)
	}
	if got := reg.Counter("transport_reconnects_total").Value(); got != stats.Reconnects {
		t.Errorf("metric reconnects = %d, stats = %d", got, stats.Reconnects)
	}
	if got := reg.Counter("transport_client_seq_gap_frames_total").Value(); got != stats.SeqGapFrames {
		t.Errorf("metric gap frames = %d, stats = %d", got, stats.SeqGapFrames)
	}

	// Phase 5: cancellation still wins over reconnection.
	cancelClient()
	select {
	case err := <-runDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop on cancellation")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before timeout")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReconnectingClientHelloChange restarts the daemon with a
// different stream geometry and requires the change callback to fire
// (and to be able to veto the new stream).
func TestReconnectingClientHelloChange(t *testing.T) {
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()

	srcA := NewMatrixSource(testMatrix(t, 5), false, true)
	defer srcA.Close()
	serverA := NewServer(srcA, nil)
	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() { doneA <- serverA.Serve(ctxA, ln1) }()

	type change struct{ prev, next StreamHello }
	changes := make(chan change, 1)
	vetoErr := errors.New("geometry rejected")
	rc := NewReconnectingClient(addr, ReconnectConfig{
		Backoff:     fastBackoff(),
		DialTimeout: time.Second,
		OnHelloChange: func(prev, next StreamHello) error {
			changes <- change{prev, next}
			return vetoErr
		},
	})

	got := make(chan uint64, 256)
	runDone := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		runDone <- rc.Run(ctx, func(f PlaneFrame) error {
			select {
			case got <- f.Seq:
			default:
			}
			return nil
		})
	}()

	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no frames from server A")
	}
	cancelA()
	<-doneA

	// Restart with 16 bins instead of 8.
	m2, err2 := rf.NewFrameMatrix(5, 16, 25, 0.0107)
	if err2 != nil {
		t.Fatal(err2)
	}
	srcB := NewMatrixSource(m2, false, true)
	defer srcB.Close()
	serverB := NewServer(srcB, nil)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	ln2 := listenOn(t, addr)
	go serverB.Serve(ctxB, ln2)

	select {
	case c := <-changes:
		if c.prev.NumBins != 8 || c.next.NumBins != 16 {
			t.Fatalf("change %+v -> %+v", c.prev, c.next)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hello-change callback never fired")
	}
	select {
	case err := <-runDone:
		if !errors.Is(err, vetoErr) {
			t.Fatalf("run returned %v, want the veto error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not stop after the veto")
	}
}

// TestReconnectingClientGivesUp bounds retries against a dead address.
func TestReconnectingClientGivesUp(t *testing.T) {
	// Grab a port and close it so nothing is listening.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc := NewReconnectingClient(addr, ReconnectConfig{
		Backoff:                Backoff{Initial: time.Millisecond, Max: 2 * time.Millisecond},
		DialTimeout:            200 * time.Millisecond,
		MaxConsecutiveFailures: 3,
	})
	err = rc.Run(context.Background(), func(PlaneFrame) error { return nil })
	if err == nil {
		t.Fatal("run against a dead address must eventually fail")
	}
	if got := rc.Stats().DialFailures; got != 3 {
		t.Fatalf("dial failures = %d, want 3", got)
	}
}

// TestReconnectingClientCallbackErrorStops ensures a consumer error is
// fatal rather than treated as a stream drop.
func TestReconnectingClientCallbackErrorStops(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	src := NewMatrixSource(testMatrix(t, 5), false, true)
	defer src.Close()
	server := NewServer(src, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go server.Serve(ctx, ln)

	sentinel := errors.New("consumer failed")
	rc := NewReconnectingClient(ln.Addr().String(), ReconnectConfig{
		Backoff:     fastBackoff(),
		DialTimeout: time.Second,
	})
	err = rc.Run(context.Background(), func(PlaneFrame) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("run returned %v, want the consumer error", err)
	}
	if rc.Stats().Reconnects != 0 {
		t.Fatal("a consumer error must not trigger reconnects")
	}
}

// TestJitterDeterministicSeed is the regression test for
// nondeterministic reconnect schedules: with an injected seeded source
// two clients produce the identical jittered backoff sequence, so chaos
// runs that flap hundreds of sessions can be replayed exactly. Before
// ReconnectConfig.Rand existed, the source was always seeded from the
// wall clock and no two runs agreed.
func TestJitterDeterministicSeed(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		rc := NewReconnectingClient("127.0.0.1:0", ReconnectConfig{
			Backoff: fastBackoff(),
			Rand:    rand.New(rand.NewSource(seed)),
		})
		out := make([]time.Duration, 0, 16)
		d := rc.cfg.Backoff.Initial
		for i := 0; i < 16; i++ {
			out = append(out, rc.jittered(d))
			d = rc.nextBackoff(d)
		}
		return out
	}

	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced the identical jitter schedule")
	}

	// Nil Rand must keep the entropy-seeded default.
	rc := NewReconnectingClient("127.0.0.1:0", ReconnectConfig{Backoff: fastBackoff()})
	if rc.rng == nil {
		t.Fatal("nil ReconnectConfig.Rand left the client without a jitter source")
	}
}

// serveSeqs accepts one connection per entry of conns on ln and writes
// the stream hello plus one frame per listed sequence number, in that
// order, then closes it; the listener closes after the last one.
func serveSeqs(ln net.Listener, conns [][]uint64) <-chan error {
	done := make(chan error, 1)
	go func() {
		defer ln.Close()
		for _, seqs := range conns {
			c, err := ln.Accept()
			if err != nil {
				done <- err
				return
			}
			err = EncodeHello(c, StreamHello{FrameRate: 25, BinSpacing: 0.0107, NumBins: 2})
			enc := NewEncoder(c)
			for _, seq := range seqs {
				if err == nil {
					err = enc.Encode(Frame{Seq: seq, Bins: []complex128{complex(float64(seq), 0), 1i}})
				}
			}
			if err == nil {
				err = enc.Flush()
			}
			c.Close()
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// TestReconnectingClientLateFramesAndEpochReset pins the sequence rule:
// within a connection a swapped pair (0,1,2,4,3,5,6) reports the hole
// once and discards the straggler as late, so the callback sees
// strictly increasing sequence numbers; a reconnect whose first frame
// steps back is one epoch reset, and that frame is delivered.
func TestReconnectingClientLateFramesAndEpochReset(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := serveSeqs(ln, [][]uint64{{0, 1, 2, 4, 3, 5, 6}, {2, 3}})

	var gaps []uint64
	rc := NewReconnectingClient(ln.Addr().String(), ReconnectConfig{
		Backoff:                fastBackoff(),
		DialTimeout:            time.Second,
		MaxConsecutiveFailures: 2,
		OnSeqGap:               func(missed uint64) { gaps = append(gaps, missed) },
	})
	var seqs []uint64
	err = rc.Run(context.Background(), func(f PlaneFrame) error {
		if f.I[0] != float32(f.Seq) {
			t.Errorf("frame %d carries the samples of frame %g", f.Seq, f.I[0])
		}
		seqs = append(seqs, f.Seq)
		return nil
	})
	if err == nil {
		t.Fatal("run against a closed listener must eventually give up")
	}
	if serr := <-served; serr != nil {
		t.Fatal(serr)
	}

	want := []uint64{0, 1, 2, 4, 5, 6, 2, 3}
	if len(seqs) != len(want) {
		t.Fatalf("delivered %v, want %v", seqs, want)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("delivered %v, want %v", seqs, want)
		}
	}
	if len(gaps) != 1 || gaps[0] != 1 {
		t.Errorf("OnSeqGap saw %v, want one 1-frame gap", gaps)
	}
	st := rc.Stats()
	if st.LateFrames != 1 || st.SeqGaps != 1 || st.SeqGapFrames != 1 {
		t.Errorf("late %d, gaps %d (%d frames), want 1, 1 (1)", st.LateFrames, st.SeqGaps, st.SeqGapFrames)
	}
	if st.EpochResets != 1 || st.Reconnects != 1 || st.Frames != uint64(len(want)) {
		t.Errorf("epoch resets %d, reconnects %d, frames %d, want 1, 1, %d",
			st.EpochResets, st.Reconnects, st.Frames, len(want))
	}
}
