// Command radard is the radar daemon: the stand-in for the Raspberry Pi
// attached to the impulse radio. It either simulates a live capture or
// replays a file written by radarsim, and broadcasts frames over TCP to
// any number of radarwatch clients, paced at the radio frame rate.
//
// Alongside the frame stream it serves an admin HTTP port with
// /metrics (JSON snapshot of the daemon's counters, gauges and
// latency histograms), /healthz, and the standard pprof handlers —
// the field-diagnostics surface of the in-vehicle deployment.
//
// Usage:
//
//	radard -addr :7341 [-admin :7342] [-file capture.brc] [-loop] [flags]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"blinkradar"
	"blinkradar/internal/chaos"
	"blinkradar/internal/obs"
	"blinkradar/internal/transport"
)

func main() {
	logger := log.New(os.Stderr, "radard: ", log.LstdFlags)
	var (
		addr       = flag.String("addr", ":7341", "TCP listen address")
		adminAddr  = flag.String("admin", ":7342", "admin HTTP address for /metrics, /healthz and pprof (empty disables)")
		file       = flag.String("file", "", "replay a radarsim capture instead of simulating")
		loop       = flag.Bool("loop", true, "repeat the capture indefinitely")
		pace       = flag.Bool("pace", true, "pace frames to the radio frame rate")
		speed      = flag.Float64("speed", 1, "playback speed multiplier when pacing (100 serves a capture at 100x realtime)")
		startFrame = flag.Int("start-frame", 0, "replay the capture from this frame index (seeks via the v1 footer index)")
		startSeq   = flag.Uint64("start-seq", 0, "initial frame sequence number (lets restarts preserve gap accounting downstream)")
		subjectID  = flag.Int("subject", 1, "participant profile id (simulated mode)")
		duration   = flag.Float64("duration", 120, "simulated capture length in seconds")
		drowsy     = flag.Bool("drowsy-state", false, "simulate a drowsy driver")
		seed       = flag.Int64("seed", 1, "scenario seed (simulated mode)")

		chaosSpec       = flag.String("chaos", "", "frame-level fault spec, e.g. seed=7,drop=0.05,nan=0.01 (see internal/chaos.ParseSpec)")
		faultSeed       = flag.Int64("fault-seed", 0, "rng seed for byte-level connection faults")
		faultCorrupt    = flag.Float64("fault-corrupt", 0, "per-byte corruption probability on client connections")
		faultResetBytes = flag.Int("fault-reset-bytes", 0, "abruptly reset a connection after this many bytes (0 = off)")
		faultResetConns = flag.Int("fault-reset-conns", 0, "only reset the first N connections (0 = all)")
		faultStallEvery = flag.Int("fault-stall-every", 0, "stall writes every N bytes (0 = off)")
		faultStallMs    = flag.Int("fault-stall-ms", 0, "stall duration in milliseconds")

		writeTimeout = flag.Duration("write-timeout", 0, "per-frame client write deadline (0 disables)")

		ingestAddr     = flag.String("ingest", "", "fleet mode: accept inbound radar streams on this address instead of broadcasting (one session per connection)")
		ingestShards   = flag.Int("ingest-shards", 0, "worker shards in fleet mode (0 = GOMAXPROCS)")
		ingestMax      = flag.Int("ingest-max-sessions", 0, "admission cap on concurrent sessions (0 = unlimited)")
		ingestPerShard = flag.Int("ingest-max-per-shard", 0, "admission cap per shard (0 = unlimited)")
		ingestQueue    = flag.Int("ingest-queue", 0, "maximum per-session frame-queue depth; storage grows to it only while frames wait (0 = default 64)")
		ingestRate     = flag.Float64("ingest-rate", 0, "per-session frame budget in frames/s (0 disables rate limiting)")
		ingestBins     = flag.Int("ingest-bins", 40, "range bins every inbound stream must announce")
		ingestFPS      = flag.Float64("ingest-fps", 25, "slow-time frame rate of inbound streams")
	)
	flag.Parse()

	if *ingestAddr != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		reg := obs.NewRegistry()
		startAdmin(ctx, *adminAddr, reg, nil, logger)
		err := runIngest(ctx, ingestOptions{
			addr:        *ingestAddr,
			shards:      *ingestShards,
			maxSessions: *ingestMax,
			perShard:    *ingestPerShard,
			queueFrames: *ingestQueue,
			rateLimit:   *ingestRate,
			numBins:     *ingestBins,
			frameRate:   *ingestFPS,
		}, reg, logger)
		if err != nil && !errors.Is(err, context.Canceled) {
			logger.Fatal(err)
		}
		return
	}

	matrix, err := loadMatrix(*file, *startFrame, *subjectID, *duration, *drowsy, *seed, logger)
	if err != nil {
		logger.Fatal(err)
	}
	src := transport.NewMatrixSource(matrix, *pace, *loop)
	if *pace && *speed != 1 {
		if err := src.SetSpeed(*speed); err != nil {
			logger.Fatal(err)
		}
	}
	defer src.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("serving %d-bin frames at %.1f fps on %s", matrix.NumBins(), matrix.FrameRate, ln.Addr())

	connFaults := chaos.ConnFaults{
		Seed:            *faultSeed,
		SkipBytes:       64, // never corrupt the stream hello
		CorruptProb:     *faultCorrupt,
		ResetAfterBytes: *faultResetBytes,
		ResetConns:      *faultResetConns,
		StallEvery:      *faultStallEvery,
		StallFor:        time.Duration(*faultStallMs) * time.Millisecond,
	}
	if connFaults.Enabled() {
		logger.Printf("injecting connection faults: %+v", connFaults)
		ln = chaos.WrapListener(ln, connFaults)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	srv := transport.NewServer(src, logger)
	srv.SetRegistry(reg)
	if *startSeq > 0 {
		srv.SetStartSeq(*startSeq)
	}
	srv.SetWriteTimeout(*writeTimeout)
	if *chaosSpec != "" {
		ccfg, err := chaos.ParseSpec(*chaosSpec)
		if err != nil {
			logger.Fatal(err)
		}
		if ccfg.Enabled() {
			inj, err := chaos.New(ccfg)
			if err != nil {
				logger.Fatal(err)
			}
			logger.Printf("injecting frame faults: %s", ccfg.Spec())
			srv.SetFrameHook(inj.Apply)
		}
	}

	// streaming flips once the pump is live; /healthz reports 503 until
	// then and again after the stream dies.
	var streaming atomic.Bool
	startAdmin(ctx, *adminAddr, reg, func() error {
		if !streaming.Load() {
			return errors.New("frame stream not running")
		}
		return nil
	}, logger)

	streaming.Store(true)
	err = srv.Serve(ctx, ln)
	streaming.Store(false)
	if err != nil && !errors.Is(err, context.Canceled) {
		logger.Fatal(err)
	}
}

// startAdmin serves /metrics, /healthz and pprof when addr is set. A
// nil health func reports healthy unconditionally.
func startAdmin(ctx context.Context, addr string, reg *obs.Registry, health func() error, logger *log.Logger) {
	if addr == "" {
		return
	}
	if health == nil {
		health = func() error { return nil }
	}
	admin := obs.NewAdmin(reg, health)
	adminLn, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatal(err)
	}
	go func() {
		if err := admin.Serve(ctx, adminLn); err != nil {
			logger.Printf("admin server: %v", err)
		}
	}()
	logger.Printf("admin endpoints on %s (/metrics, /healthz, /debug/pprof/)", adminLn.Addr())
}

// loadMatrix replays a capture file or simulates a fresh one. Capture
// files go through CaptureReader, which reads the .brc v1 format,
// serves the intact prefix of a torn file (with a warning) instead of
// refusing it, and seeks -start-frame via the frame index.
func loadMatrix(path string, startFrame, subjectID int, duration float64, drowsy bool, seed int64, logger *log.Logger) (*blinkradar.FrameMatrix, error) {
	if path == "" {
		if startFrame != 0 {
			return nil, fmt.Errorf("-start-frame needs a capture file to seek in")
		}
		spec := blinkradar.DefaultSpec()
		spec.Subject = blinkradar.NewSubject(subjectID)
		spec.Environment = blinkradar.Driving
		spec.Duration = duration
		spec.Seed = seed
		if drowsy {
			spec.State = blinkradar.Drowsy
		}
		logger.Printf("simulating subject %d, %s, %.0f s", subjectID, spec.State, duration)
		capture, err := blinkradar.Generate(spec)
		if err != nil {
			return nil, err
		}
		return capture.Frames, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open capture: %w", err)
	}
	defer f.Close()
	cr, err := transport.NewCaptureReader(f)
	if err != nil {
		return nil, fmt.Errorf("read capture: %w", err)
	}
	if terr := cr.Truncated(); terr != nil {
		logger.Printf("capture %s does not end cleanly (%v); serving its %d intact frames", path, terr, cr.NumFrames())
	}
	return cr.ReadMatrixFrom(startFrame)
}
