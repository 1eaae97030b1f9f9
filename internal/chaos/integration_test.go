package chaos

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"blinkradar/internal/core"
	"blinkradar/internal/rf"
	"blinkradar/internal/transport"
)

// The chaos integration suite runs the full radard→radarwatch loop —
// paced MatrixSource, Server with a fault hook or a faulted listener,
// ReconnectingClient feeding core.Detector.FeedPlanes — under each
// injector and asserts the recovery invariants: no panic, no goroutine
// leak, exact seq-gap accounting where the fault is deterministic, and
// a return to HealthTracking within the documented bound
// (ColdStartFrames accepted clean frames, plus a small selection-retry
// slack).

// recoveryBound is the documented re-acquisition bound checked by the
// suite: cold start refills the ring (ColdStartFrames) and selection
// may need a few extra frames if the first pass is degenerate.
const recoveryBound = core.ColdStartFrames + 10

// chaosCapture builds the synthetic face capture used across the suite:
// 40 bins at 25 fps, static clutter, a face return at bin 20 carrying
// the vital-sign arc, thermal noise everywhere.
func chaosCapture(t *testing.T, frames int, seed int64) (*rf.FrameMatrix, int) {
	t.Helper()
	const bins = 40
	const faceBin = 20
	m, err := rf.NewFrameMatrix(frames, bins, 25, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < frames; k++ {
		tt := float64(k) / 25
		row := m.Data[k]
		row[3] += 1.5
		row[30] += complex(0.8, -0.6)
		arc := 0.3*math.Sin(2*math.Pi*0.25*tt) + 0.1*math.Sin(2*math.Pi*1.2*tt)
		row[faceBin] += cmplx.Rect(1.4, arc)
		for b := range row {
			row[b] += complex(rng.NormFloat64()*0.004, rng.NormFloat64()*0.004)
		}
	}
	return m, faceBin
}

// leakCheck records the goroutine count and fails the test if it has
// not returned to base (+scheduler slack) shortly after the test body.
func leakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base+3 {
			if time.Now().After(deadline) {
				t.Errorf("goroutines grew from %d to %d: loop leaked", base, runtime.NumGoroutine())
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// loopResult is what one radard→radarwatch run hands back for
// assertions.
type loopResult struct {
	stats    transport.ReconnectStats
	runErr   error
	serveErr error
	// delivered maps each delivered sequence number to its delivery
	// count (duplicates included); minSeq/maxSeq frame the range.
	delivered      map[uint64]int
	minSeq, maxSeq uint64
}

// missingInRange counts the sequence numbers inside [minSeq, maxSeq]
// never delivered — the losses a client can actually observe.
func (r loopResult) missingInRange() uint64 {
	if len(r.delivered) == 0 {
		return 0
	}
	return r.maxSeq - r.minSeq + 1 - uint64(len(r.delivered))
}

// runLoop wires the full loop and lets it run to natural exhaustion:
// the finite paced source drains, Serve returns, the client's redials
// fail and Run gives up. Both sides are joined before returning, so a
// leak shows up in leakCheck, not as a hung test.
func runLoop(t *testing.T, m *rf.FrameMatrix, speed float64,
	tune func(*transport.Server), wrap func(net.Listener) net.Listener,
	ccfg transport.ReconnectConfig, onFrame func(transport.PlaneFrame) error) loopResult {
	t.Helper()
	src := transport.NewMatrixSource(m, true, false)
	if err := src.SetSpeed(speed); err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	srv := transport.NewServer(src, nil)
	srv.SetMinClients(1)
	srv.SetWriteTimeout(2 * time.Second)
	if tune != nil {
		tune(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	var wg sync.WaitGroup
	res := loopResult{delivered: make(map[uint64]int)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		res.serveErr = srv.Serve(context.Background(), ln)
	}()

	if ccfg.Backoff.Initial == 0 {
		ccfg.Backoff = transport.Backoff{Initial: 10 * time.Millisecond, Max: 50 * time.Millisecond, Multiplier: 2, Jitter: 0.1}
	}
	if ccfg.MaxConsecutiveFailures == 0 {
		ccfg.MaxConsecutiveFailures = 5
	}
	if ccfg.Rand == nil {
		// Deterministic backoff jitter: a failing chaos run replays with
		// the same reconnect schedule.
		ccfg.Rand = rand.New(rand.NewSource(0x5EED))
	}
	rc := transport.NewReconnectingClient(addr, ccfg)
	res.runErr = rc.Run(context.Background(), func(f transport.PlaneFrame) error {
		if len(res.delivered) == 0 || f.Seq < res.minSeq {
			res.minSeq = f.Seq
		}
		if f.Seq > res.maxSeq {
			res.maxSeq = f.Seq
		}
		res.delivered[f.Seq]++
		return onFrame(f)
	})
	wg.Wait()
	res.stats = rc.Stats()
	return res
}

// newDetector builds the consumer-side pipeline used by the suite.
func newDetector(t *testing.T, bins int) *core.Detector {
	t.Helper()
	det, err := core.NewDetector(core.DefaultConfig(), bins, 25)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// TestChaosDropBurstExactAccounting drops ~15% of frames in bursts and
// checks the loss ledger end to end: injector drops == client seq-gap
// frames == detector gap frames, with the edges (losses before the
// first and after the last delivered frame) accounted for.
func TestChaosDropBurstExactAccounting(t *testing.T) {
	leakCheck(t)
	const frames = 1200
	m, _ := chaosCapture(t, frames, 1)
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.DropRate = 0.15
	cfg.MeanBurstLen = 4
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := newDetector(t, m.NumBins())
	res := runLoop(t, m, 20,
		func(s *transport.Server) { s.SetFrameHook(inj.Apply) }, nil,
		transport.ReconnectConfig{OnSeqGap: det.NoteGap},
		func(f transport.PlaneFrame) error { _, _, err := det.FeedPlanes(f.I, f.Q); return err },
	)
	if res.stats.Frames == 0 {
		t.Fatalf("no frames delivered: run %v serve %v", res.runErr, res.serveErr)
	}
	missing := res.missingInRange()
	if missing == 0 {
		t.Fatal("15% burst drops produced no observable gaps")
	}
	if res.stats.SeqGapFrames != missing {
		t.Fatalf("client gap accounting %d != %d missing seqs", res.stats.SeqGapFrames, missing)
	}
	if got := det.InputStats().GapFrames; got != missing {
		t.Fatalf("detector gap accounting %d != %d missing seqs", got, missing)
	}
	st := inj.Stats()
	edges := res.minSeq + (frames - 1 - res.maxSeq)
	if st.Dropped != missing+edges {
		t.Fatalf("injector dropped %d, observed %d missing + %d edge losses", st.Dropped, missing, edges)
	}
	if res.stats.EpochResets != 0 {
		t.Fatalf("drop-only fault produced %d epoch resets", res.stats.EpochResets)
	}
	if h := det.Health(); h != core.HealthTracking {
		t.Fatalf("detector ended %v, want tracking", h)
	}
}

// TestChaosLongGapReacquires cuts a deterministic 80-frame hole — wider
// than the detector's 50-frame gap bridge — and checks the detector
// discards tracking state and is back to HealthTracking within the
// documented bound.
func TestChaosLongGapReacquires(t *testing.T) {
	leakCheck(t)
	const gapStart, gapEnd = 600, 680
	m, _ := chaosCapture(t, 1200, 2)
	det := newDetector(t, m.NumBins())
	sawTrackingBeforeGap := false
	framesAfterReset := -1
	recoveredAfter := -1
	res := runLoop(t, m, 20,
		func(s *transport.Server) {
			s.SetFrameHook(func(f transport.Frame) []transport.Frame {
				if f.Seq >= gapStart && f.Seq < gapEnd {
					return nil
				}
				return []transport.Frame{f}
			})
		}, nil,
		transport.ReconnectConfig{OnSeqGap: det.NoteGap},
		func(f transport.PlaneFrame) error {
			if f.Seq < gapStart && det.Health() == core.HealthTracking {
				sawTrackingBeforeGap = true
			}
			_, _, err := det.FeedPlanes(f.I, f.Q)
			if f.Seq >= gapEnd {
				if framesAfterReset >= 0 {
					framesAfterReset++
				} else {
					framesAfterReset = 0
				}
				if recoveredAfter < 0 && det.Health() == core.HealthTracking {
					recoveredAfter = framesAfterReset
				}
			}
			return err
		},
	)
	if !sawTrackingBeforeGap {
		t.Fatalf("detector never reached tracking before the gap: %v %v", res.runErr, res.serveErr)
	}
	in := det.InputStats()
	if in.GapFrames != gapEnd-gapStart {
		t.Fatalf("gap frames %d, want %d", in.GapFrames, gapEnd-gapStart)
	}
	if in.GapResets != 1 {
		t.Fatalf("gap resets %d, want exactly 1", in.GapResets)
	}
	if recoveredAfter < 0 || recoveredAfter > recoveryBound {
		t.Fatalf("recovered after %d clean frames, documented bound is %d", recoveredAfter, recoveryBound)
	}
}

// TestChaosCorruptStreamResync flips bytes on the wire and checks the
// client realigns in-stream instead of tearing the connection down,
// with the skipped frames surfacing as ordinary sequence gaps.
func TestChaosCorruptStreamResync(t *testing.T) {
	leakCheck(t)
	m, _ := chaosCapture(t, 1200, 3)
	det := newDetector(t, m.NumBins())
	res := runLoop(t, m, 20, nil,
		func(ln net.Listener) net.Listener {
			return WrapListener(ln, ConnFaults{
				Seed:              3,
				SkipBytes:         64,
				CorruptProb:       2e-4,
				CorruptUntilBytes: 200_000,
			})
		},
		transport.ReconnectConfig{Resync: true, OnSeqGap: det.NoteGap},
		func(f transport.PlaneFrame) error { _, _, err := det.FeedPlanes(f.I, f.Q); return err },
	)
	if res.stats.Resyncs == 0 {
		t.Fatalf("corrupted stream produced no resyncs (frames %d, run %v)", res.stats.Frames, res.runErr)
	}
	if res.stats.Reconnects != 0 {
		t.Fatalf("resync mode still paid %d reconnects", res.stats.Reconnects)
	}
	if res.stats.Frames < 1000 {
		t.Fatalf("only %d/1200 frames survived light corruption", res.stats.Frames)
	}
	if h := det.Health(); h != core.HealthTracking {
		t.Fatalf("detector ended %v, want tracking", h)
	}
}

// TestChaosConnectionReset abruptly closes the first connection
// mid-stream and checks the client reconnects and the detector rides
// through or re-acquires, ending healthy.
func TestChaosConnectionReset(t *testing.T) {
	leakCheck(t)
	m, _ := chaosCapture(t, 1200, 4)
	det := newDetector(t, m.NumBins())
	res := runLoop(t, m, 20, nil,
		func(ln net.Listener) net.Listener {
			return WrapListener(ln, ConnFaults{Seed: 5, ResetAfterBytes: 120_000, ResetConns: 1})
		},
		transport.ReconnectConfig{OnSeqGap: det.NoteGap},
		func(f transport.PlaneFrame) error { _, _, err := det.FeedPlanes(f.I, f.Q); return err },
	)
	if res.stats.Reconnects < 1 {
		t.Fatalf("injected reset produced no reconnect: run %v serve %v", res.runErr, res.serveErr)
	}
	if res.stats.Frames == 0 {
		t.Fatal("no frames delivered after reset")
	}
	if h := det.Health(); h != core.HealthTracking {
		t.Fatalf("detector ended %v, want tracking (stats %+v, input %+v)", det.Health(), res.stats, det.InputStats())
	}
}

// TestChaosPoisonedBinsDegrade poisons a deterministic window of frames
// past the repair threshold and checks the degraded-mode contract:
// every poisoned frame rejected, HealthDegraded entered, tracking state
// discarded once the run exceeds the 50-frame gap bridge, and full
// recovery on clean input.
func TestChaosPoisonedBinsDegrade(t *testing.T) {
	leakCheck(t)
	const poisonStart, poisonEnd = 500, 580
	m, _ := chaosCapture(t, 1200, 5)
	cfg := DefaultConfig()
	cfg.Seed = 11
	cfg.PoisonProb = 1
	cfg.PoisonFrac = 0.6
	cfg.StartAfter = poisonStart
	cfg.StopAfter = poisonEnd
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := newDetector(t, m.NumBins())
	sawDegraded := false
	res := runLoop(t, m, 20,
		func(s *transport.Server) { s.SetFrameHook(inj.Apply) }, nil,
		transport.ReconnectConfig{OnSeqGap: det.NoteGap},
		func(f transport.PlaneFrame) error {
			_, _, err := det.FeedPlanes(f.I, f.Q)
			if det.Health() == core.HealthDegraded {
				sawDegraded = true
			}
			return err
		},
	)
	in := det.InputStats()
	if in.Rejected != poisonEnd-poisonStart {
		t.Fatalf("rejected %d frames, want the full poisoned window %d (stats %+v)", in.Rejected, poisonEnd-poisonStart, res.stats)
	}
	if !sawDegraded {
		t.Fatal("80 consecutive rejects never reached HealthDegraded")
	}
	if in.GapResets != 1 {
		t.Fatalf("gap resets %d, want exactly 1 (reject run exceeds the 50-frame gap bridge)", in.GapResets)
	}
	if h := det.Health(); h != core.HealthTracking {
		t.Fatalf("detector ended %v, want tracking", h)
	}
}

// TestChaosDuplicatesAndReorder injects duplicate and swapped frames
// and checks the loop absorbs them exactly: every sequence number is
// delivered at most once and in increasing order, dups and reordered
// stragglers are counted as late frames (never as epoch resets on this
// single connection), and each hole a swap opens is reported once, so
// the client and detector gap counts equal the sequence numbers never
// delivered — no inflated gap counts.
func TestChaosDuplicatesAndReorder(t *testing.T) {
	leakCheck(t)
	m, _ := chaosCapture(t, 1200, 7)
	cfg := DefaultConfig()
	cfg.Seed = 17
	cfg.DupProb = 0.05
	cfg.ReorderProb = 0.05
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	det := newDetector(t, m.NumBins())
	res := runLoop(t, m, 20,
		func(s *transport.Server) { s.SetFrameHook(inj.Apply) }, nil,
		transport.ReconnectConfig{OnSeqGap: det.NoteGap},
		func(f transport.PlaneFrame) error { _, _, err := det.FeedPlanes(f.I, f.Q); return err },
	)
	st := inj.Stats()
	if st.Duplicated == 0 || st.Reordered == 0 {
		t.Fatalf("injector applied no dup/reorder faults: %+v", st)
	}
	for seq, n := range res.delivered {
		if n != 1 {
			t.Fatalf("seq %d delivered %d times, want once", seq, n)
		}
	}
	if res.stats.Connects != 1 {
		t.Fatalf("%d connections, want the single one this fault model keeps", res.stats.Connects)
	}
	if res.stats.LateFrames == 0 || res.stats.EpochResets != 0 {
		t.Fatalf("late frames %d, epoch resets %d: want dups/reorders counted late, none as resets",
			res.stats.LateFrames, res.stats.EpochResets)
	}
	missing := res.missingInRange()
	if res.stats.SeqGapFrames != missing {
		t.Fatalf("client gap accounting %d != %d missing seqs", res.stats.SeqGapFrames, missing)
	}
	if got := det.InputStats().GapFrames; got != res.stats.SeqGapFrames {
		t.Fatalf("detector gap accounting %d != client %d", got, res.stats.SeqGapFrames)
	}
	if h := det.Health(); h != core.HealthTracking {
		t.Fatalf("detector ended %v, want tracking", h)
	}
}
