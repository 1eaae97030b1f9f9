package main

import (
	"context"
	"log"
	"net"
	"time"

	"blinkradar/internal/ingest"
	"blinkradar/internal/obs"
	"blinkradar/internal/session"
)

// ingestOptions collects the multi-session listener flags.
type ingestOptions struct {
	addr        string
	shards      int
	maxSessions int
	perShard    int
	queueFrames int
	rateLimit   float64
	numBins     int
	frameRate   float64
}

// runIngest is radard's fleet mode: instead of broadcasting one
// simulated capture outward, it accepts inbound radar streams — one TCP
// connection per vehicle, speaking the same hello+frame codec in the
// reverse direction — and runs every stream through its own pooled
// detection pipeline on the session manager's per-core shards. The
// serving loop itself lives in internal/ingest, shared with the
// radarfleet soak harness.
func runIngest(ctx context.Context, opts ingestOptions, reg *obs.Registry, logger *log.Logger) error {
	mgr, err := session.NewManager(session.Config{
		NumBins:             opts.numBins,
		FrameRate:           opts.frameRate,
		Shards:              opts.shards,
		MaxSessions:         opts.maxSessions,
		MaxSessionsPerShard: opts.perShard,
		QueueFrames:         opts.queueFrames,
		RateLimit:           opts.rateLimit,
		Registry:            reg,
	})
	if err != nil {
		return err
	}
	defer mgr.Close()

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	logger.Printf("ingesting %d-bin streams at %.1f fps on %s (%d shards)",
		opts.numBins, opts.frameRate, ln.Addr(), mgr.Shards())

	return ingest.Serve(ctx, ln, mgr, ingest.Options{
		NumBins:    opts.numBins,
		Logger:     logger,
		StatsEvery: 10 * time.Second,
	})
}
