// Command radarwatch connects to a radard daemon, runs the real-time
// detection pipeline on the live frame stream, and prints blinks and
// rolling drowsiness assessments as they happen — the in-car monitor
// half of the deployment.
//
// The link is resilient: if radard restarts (ignition cycle, daemon
// upgrade), radarwatch reconnects with exponential backoff, records
// the outage as a sequence gap, discards late (duplicate or reordered)
// frames, and rebuilds its pipeline if the stream comes back with a
// different geometry. An optional admin port exposes the monitor's own
// /metrics, /healthz and pprof.
//
// Usage:
//
//	radarwatch -addr localhost:7341 [-window 60] [-admin :7343]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"blinkradar"
	"blinkradar/internal/obs"
	"blinkradar/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("radarwatch: ")
	var (
		addr        = flag.String("addr", "localhost:7341", "radard address")
		window      = flag.Float64("window", 60, "drowsiness window in seconds")
		adminAddr   = flag.String("admin", "", "admin HTTP address for /metrics, /healthz and pprof (empty disables)")
		retries     = flag.Int("max-retries", 0, "give up after this many consecutive failed dials (0 retries forever)")
		readTimeout = flag.Duration("read-timeout", 0, "per-frame read deadline; a daemon stalled longer triggers a reconnect (0 disables)")
		resync      = flag.Bool("resync", false, "skip corrupt frames in-stream instead of reconnecting")
	)
	flag.Parse()

	// Probe-build a monitor at the default radio geometry, as
	// session.NewManager probes its config, so a bad -window fails
	// before the first dial instead of when a connection's hello
	// builds the real one.
	radio := blinkradar.DefaultChannelConfig()
	if _, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), radio.NumBins, radio.FrameRate, *window); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	if *adminAddr != "" {
		go func() {
			if err := obs.NewAdmin(reg, nil).ListenAndServe(ctx, *adminAddr); err != nil {
				log.Printf("admin server: %v", err)
			}
		}()
	}

	// The monitor is (re)built on connect, sized by the announced
	// stream geometry. All callbacks run on the Run goroutine, so no
	// locking is needed around it.
	var monitor *blinkradar.Monitor
	buildMonitor := func(h transport.StreamHello) error {
		m, err := blinkradar.NewMonitor(blinkradar.DefaultConfig(), int(h.NumBins), h.FrameRate, *window)
		if err != nil {
			return err
		}
		m.SetRegistry(reg)
		monitor = m
		return nil
	}

	client := transport.NewReconnectingClient(*addr, transport.ReconnectConfig{
		DialTimeout:            5 * time.Second,
		ReadTimeout:            *readTimeout,
		Resync:                 *resync,
		MaxConsecutiveFailures: *retries,
		Registry:               reg,
		Logger:                 log.New(os.Stderr, "radarwatch: ", 0),
		OnSeqGap: func(missed uint64) {
			// Tell the pipeline about the hole so slow-time state is
			// not concatenated across it; long gaps re-run cold start.
			if monitor != nil {
				monitor.NoteGap(missed)
			}
		},
		OnConnect: func(h transport.StreamHello, reconnected bool) error {
			verb := "connected"
			if reconnected {
				verb = "reconnected"
			}
			fmt.Printf("%s: %d bins at %.1f fps, %.1f mm bin spacing\n",
				verb, h.NumBins, h.FrameRate, h.BinSpacing*1000)
			if monitor == nil {
				return buildMonitor(h)
			}
			return nil
		},
		OnHelloChange: func(prev, next transport.StreamHello) error {
			fmt.Printf("stream geometry changed (%d -> %d bins); resetting pipeline\n",
				prev.NumBins, next.NumBins)
			return buildMonitor(next)
		},
	})

	err := client.Run(ctx, func(f transport.PlaneFrame) error {
		ev, ok, assessment, err := monitor.FeedPlanes(f.I, f.Q)
		if err != nil {
			return err
		}
		if ok {
			fmt.Printf("[%8.2fs] blink  duration %3.0f ms  amplitude %.3f (bin %d)\n",
				ev.Time, ev.Duration*1000, ev.Amplitude, ev.Bin)
		}
		if assessment != nil {
			state := "uncalibrated"
			if assessment.Calibrated {
				state = "awake"
				if assessment.Drowsy {
					state = "DROWSY"
				}
			}
			line := fmt.Sprintf("[%8.2fs] window %.1f blinks/min (mean %3.0f ms) -> %s",
				assessment.WindowEnd, assessment.Features.BlinkRate,
				assessment.Features.MeanBlinkDuration*1000, state)
			if v := assessment.Vitals; v != nil {
				line += fmt.Sprintf("  [resp %.1f bpm", v.RespirationBPM())
				if v.HeartHz > 0 {
					line += fmt.Sprintf(", heart %.0f bpm", v.HeartBPM())
				}
				line += "]"
			}
			fmt.Println(line)
		}
		return nil
	})

	stats := client.Stats()
	fmt.Printf("session: %d frames, %d reconnects, %d frames lost in %d gaps, %d late frames discarded, %d corrupt frames resynced\n",
		stats.Frames, stats.Reconnects, stats.SeqGapFrames, stats.SeqGaps, stats.LateFrames, stats.Resyncs)
	if monitor != nil {
		in := monitor.InputStats()
		fmt.Printf("pipeline: health %s, %d frames rejected, %d bins repaired, %d gap resets\n",
			monitor.Health(), in.Rejected, in.RepairedBins, in.GapResets)
	}
	switch {
	case err == nil, errors.Is(err, context.Canceled):
		fmt.Println("stream ended")
	default:
		log.Fatal(err)
	}
}
