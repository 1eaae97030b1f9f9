package ingest

import (
	"context"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"blinkradar/internal/session"
	"blinkradar/internal/transport"
)

const testBins = 16

func newTestManager(t *testing.T, queueFrames int) *session.Manager {
	t.Helper()
	mgr, err := session.NewManager(session.Config{
		NumBins:     testBins,
		FrameRate:   25,
		Shards:      1,
		QueueFrames: queueFrames,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return mgr
}

// serve runs ServeStream on the server end of a net.Pipe and returns
// the client end plus a channel carrying ServeStream's result.
func serve(t *testing.T, mgr *session.Manager, opts Options) (net.Conn, <-chan error) {
	t.Helper()
	server, client := net.Pipe()
	t.Cleanup(func() { client.Close() })
	done := make(chan error, 1)
	go func() { done <- ServeStream(context.Background(), server, mgr, opts) }()
	return client, done
}

// result waits for ServeStream to return.
func result(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("ServeStream did not return")
		return nil
	}
}

// TestServeStreamDefaultHelloTimeout drives ServeStream directly with a
// zero Options.HelloTimeout, which must mean the default rather than a
// deadline that has already passed: the hello and every frame are
// accepted, and OnDetach reports exact accounting, the sequence gap
// included.
func TestServeStreamDefaultHelloTimeout(t *testing.T) {
	const frames, gap = 100, 5
	mgr := newTestManager(t, frames)
	detached := make(chan session.SessionStats, 1)
	client, done := serve(t, mgr, Options{
		NumBins:  testBins,
		OnDetach: func(id string, st session.SessionStats) { detached <- st },
	})

	if err := transport.EncodeHello(client, transport.StreamHello{FrameRate: 25, BinSpacing: 0.05, NumBins: testBins}); err != nil {
		t.Fatalf("hello refused: %v", err)
	}
	enc := transport.NewEncoder(client)
	bins := make([]complex128, testBins)
	for k := 0; k < frames; k++ {
		for b := range bins {
			ph := float64(k)*0.13 + float64(b)*0.7
			bins[b] = complex(math.Cos(ph), math.Sin(ph)) * 1e-3
		}
		seq := uint64(k)
		if k >= frames/2 {
			seq += gap
		}
		if err := enc.Encode(transport.Frame{Seq: seq, TimestampMicros: seq * 40000, Bins: bins}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Detach discards queued frames, so close only once all are fed.
	id := client.LocalAddr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := mgr.SessionStats(id)
		if err == nil && st.Processed == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %q never processed %d frames: %+v, %v", id, frames, st, err)
		}
		time.Sleep(time.Millisecond)
	}
	client.Close()
	if err := result(t, done); !errors.Is(err, io.EOF) {
		t.Fatalf("ServeStream ended with %v, want EOF", err)
	}
	st := <-detached
	if st.Submitted != frames || st.Processed != frames || st.Dropped != 0 || st.Limited != 0 || st.GapFrames != gap {
		t.Fatalf("detach accounting %+v, want %d submitted and processed, 0 dropped, %d gap frames", st, frames, gap)
	}
	if n := mgr.Stats().Sessions; n != 0 {
		t.Fatalf("%d sessions attached after the stream ended", n)
	}
}

// TestServeStreamHelloTimeout checks that an explicit timeout is still
// enforced: a stream that never sends its hello is refused before any
// attach.
func TestServeStreamHelloTimeout(t *testing.T) {
	mgr := newTestManager(t, 0)
	_, done := serve(t, mgr, Options{NumBins: testBins, HelloTimeout: 20 * time.Millisecond})
	if err := result(t, done); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent stream ended with %v, want a hello deadline error", err)
	}
	if st := mgr.Stats(); st.Attaches != 0 {
		t.Fatalf("%d attaches for a stream that sent no hello", st.Attaches)
	}
}

// TestServeStreamDiscardsLateFrames sends a swapped pair (0,1,2,4,3,5,6):
// nothing is lost, 3 arrives late. The hole before 4 is reported once
// and 3 is discarded before SubmitPlanes, so the pipeline sees strictly
// increasing sequence numbers — no second, phantom gap after 3.
func TestServeStreamDiscardsLateFrames(t *testing.T) {
	seqs := []uint64{0, 1, 2, 4, 3, 5, 6}
	mgr := newTestManager(t, len(seqs))
	detached := make(chan session.SessionStats, 1)
	client, done := serve(t, mgr, Options{
		NumBins:  testBins,
		OnDetach: func(id string, st session.SessionStats) { detached <- st },
	})
	if err := transport.EncodeHello(client, transport.StreamHello{FrameRate: 25, BinSpacing: 0.05, NumBins: testBins}); err != nil {
		t.Fatalf("hello refused: %v", err)
	}
	enc := transport.NewEncoder(client)
	bins := make([]complex128, testBins)
	for _, seq := range seqs {
		bins[0] = complex(float64(seq), 1)
		if err := enc.Encode(transport.Frame{Seq: seq, TimestampMicros: seq * 40000, Bins: bins}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	// Detach discards queued frames, so close only once the six in-order
	// frames are fed.
	id := client.LocalAddr().String()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := mgr.SessionStats(id)
		if err == nil && st.Submitted >= 6 && st.Queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %q never drained 6 frames: %+v, %v", id, st, err)
		}
		time.Sleep(time.Millisecond)
	}
	client.Close()
	if err := result(t, done); !errors.Is(err, io.EOF) {
		t.Fatalf("ServeStream ended with %v, want EOF", err)
	}
	st := <-detached
	if st.GapFrames != 1 || st.Processed != 6 || st.Submitted != 6 {
		t.Fatalf("detach accounting %+v, want 1 gap frame and 6 frames submitted and processed", st)
	}
}
