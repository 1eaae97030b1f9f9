// Streaming demonstrates the distributed acquisition topology of the
// real deployment in a single process: a radar daemon (the Raspberry Pi
// attached to the impulse radio) broadcasts frames over loopback TCP,
// and a monitoring client runs the real-time pipeline on the stream.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"time"

	"blinkradar"
	"blinkradar/internal/transport"
)

func main() {
	// Simulate a two-minute drive to serve.
	spec := blinkradar.DefaultSpec()
	spec.Subject = blinkradar.NewSubject(9)
	spec.Environment = blinkradar.Driving
	spec.Duration = 120
	spec.Seed = 77
	capture, err := blinkradar.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving a %d-frame capture with %d ground-truth blinks\n",
		capture.Frames.NumFrames(), len(capture.Truth))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The daemon side: replay the capture once at 40x real time (a real
	// daemon paces at the radio's 25 fps), waiting for the monitor to
	// connect before streaming.
	src := transport.NewMatrixSource(capture.Frames, true, false)
	if err := src.SetSpeed(40); err != nil {
		log.Fatal(err)
	}
	server := transport.NewServer(src, nil)
	server.SetMinClients(1)
	serverDone := make(chan error, 1)
	go func() { serverDone <- server.Serve(ctx, ln) }()

	// The monitor side: dial, read the stream geometry, run the
	// real-time detector on every received frame's float32 I/Q planes.
	dialCtx, dialCancel := context.WithTimeout(ctx, 5*time.Second)
	defer dialCancel()
	client, err := transport.Dial(dialCtx, ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	hello := client.Hello()
	fmt.Printf("client connected: %d bins at %.1f fps\n", hello.NumBins, hello.FrameRate)

	detector, err := blinkradar.NewDetector(blinkradar.DefaultConfig(), int(hello.NumBins), hello.FrameRate)
	if err != nil {
		log.Fatal(err)
	}
	var events []blinkradar.BlinkEvent
	err = client.Run(ctx, func(f transport.PlaneFrame) error {
		ev, ok, err := detector.FeedPlanes(f.I, f.Q)
		if err != nil {
			return err
		}
		if ok {
			events = append(events, ev)
			fmt.Printf("  live blink at t=%6.2fs (frame %d)\n", ev.Time, f.Seq)
		}
		return nil
	})
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) {
		// The replay source ends the stream when the capture is
		// exhausted; anything else is a real failure.
		var netErr net.Error
		if !errors.As(err, &netErr) {
			log.Fatal(err)
		}
	}

	truth := blinkradar.TrimWarmup(capture.Truth, blinkradar.DefaultWarmup)
	m := blinkradar.Match(truth, events, 0)
	fmt.Printf("streamed detection: %d blinks, accuracy %.1f%% over the wire\n",
		len(events), m.Accuracy()*100)
	cancel()
	<-serverDone
}
