package blinkradar_test

import (
	"context"
	"net"
	"testing"
	"time"

	"blinkradar"
	"blinkradar/internal/core"
	"blinkradar/internal/transport"
)

// TestStreamedDetectionMatchesOffline serves a generated capture through
// transport.Server, runs every received frame's I/Q planes through
// Detector.FeedPlanes, and requires exactly the events core.Detect finds
// on the same matrix: the wire carries float32 samples and both paths
// narrow the matrix to the same float32 values. 20x pace keeps the
// client far inside the server's per-client queue, so no frame is shed.
func TestStreamedDetectionMatchesOffline(t *testing.T) {
	spec := blinkradar.DefaultSpec()
	spec.Duration = 40
	spec.Seed = 5
	capture, err := blinkradar.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	m := capture.Frames
	want, _, err := core.Detect(core.DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("offline detection found no blinks to compare")
	}

	src := transport.NewMatrixSource(m, true, false)
	defer src.Close()
	if err := src.SetSpeed(20); err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(src, nil)
	srv.SetMinClients(1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()

	client, err := transport.Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	det, err := core.NewDetector(core.DefaultConfig(), m.NumBins(), m.FrameRate)
	if err != nil {
		t.Fatal(err)
	}
	var got []core.BlinkEvent
	var frames uint64
	runErr := client.Run(ctx, func(f transport.PlaneFrame) error {
		if f.Seq != frames {
			t.Fatalf("frame %d arrived with seq %d", frames, f.Seq)
		}
		frames++
		ev, ok, err := det.FeedPlanes(f.I, f.Q)
		if ok {
			got = append(got, ev)
		}
		return err
	})
	if ev, ok := det.Flush(); ok {
		got = append(got, ev)
	}
	if ctx.Err() != nil {
		t.Fatalf("stream did not end before the deadline: %v", runErr)
	}
	cancel()
	<-served

	if frames != uint64(m.NumFrames()) {
		t.Fatalf("received %d of %d frames (run ended with %v)", frames, m.NumFrames(), runErr)
	}
	if len(got) != len(want) {
		t.Fatalf("streamed detection found %d events, offline %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d: streamed %+v, offline %+v", i, got[i], want[i])
		}
	}
}
