// Package ingest implements the inbound fleet listener: one TCP
// connection per radar stream, speaking the hello+frame codec toward
// the daemon, each stream running through its own pooled detection
// pipeline on a session.Manager. It is the serving half shared by
// cmd/radard's -ingest mode and cmd/radarfleet's embedded soak target —
// the soak harness exercises exactly the code path production runs.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"blinkradar/internal/session"
	"blinkradar/internal/transport"
)

// Options tunes the listener around a caller-owned session.Manager.
type Options struct {
	// NumBins is the geometry every stream's hello must announce;
	// mismatches close the connection before attach.
	NumBins int
	// HelloTimeout bounds how long a fresh connection may take to send
	// its hello (default 10s).
	HelloTimeout time.Duration
	// OnDetach, when non-nil, receives each session's final accounting
	// as its connection ends — after Detach, so the stats are the
	// session's last word. Called from the connection's goroutine.
	OnDetach func(id string, stats session.SessionStats)
	// Logger, when non-nil, receives per-stream errors and — when
	// StatsEvery is set — periodic fleet summaries.
	Logger *log.Logger
	// StatsEvery is the fleet summary period; zero disables it.
	StatsEvery time.Duration
}

// Serve accepts streams on ln until ctx is cancelled, running each
// through mgr. The connection is the session: its remote address is the
// session ID, a decoded sequence gap becomes Manager.NoteGap, a late
// frame (Seq not above the last submitted one) is discarded, EOF (or
// any stream error) detaches. Serve owns ln and closes it on ctx
// cancellation; it returns once the accept loop, its helper
// goroutines, and every in-flight connection goroutine have joined
// (connection reads are unhooked by ctx, so cancellation reaches
// them).
func Serve(ctx context.Context, ln net.Listener, mgr *session.Manager, opts Options) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ctx.Done()
		ln.Close()
	}()
	if opts.Logger != nil && opts.StatsEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(opts.StatsEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					st := mgr.Stats()
					opts.Logger.Printf("fleet: %d sessions, %d queued, %d frames (%d dropped, %d limited), %d degraded",
						st.Sessions, st.Queued, st.Frames, st.Dropped, st.Limited, st.Degrades)
				}
			}
		}()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			wg.Wait()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ServeStream(ctx, conn, mgr, opts); err != nil &&
				!errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && ctx.Err() == nil {
				if opts.Logger != nil {
					opts.Logger.Printf("stream %s: %v", conn.RemoteAddr(), err)
				}
			}
		}()
	}
}

// ServeStream runs one inbound radar stream: hello, geometry check,
// attach, decode/submit loop, detach (with the final stats handed to
// OnDetach). The manager's typed rejections map to connection handling:
// admission refusals close the connection immediately; rate-limited
// frames are discarded and the stream carries on. A zero
// Options.HelloTimeout means the 10-s default, as under Serve.
func ServeStream(ctx context.Context, conn net.Conn, mgr *session.Manager, opts Options) error {
	defer conn.Close()
	// Tie the blocking reads to the serving lifetime.
	unhook := context.AfterFunc(ctx, func() { conn.Close() })
	defer unhook()

	helloTimeout := opts.HelloTimeout
	if helloTimeout <= 0 {
		helloTimeout = 10 * time.Second
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	hello, err := transport.DecodeHello(conn)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if int(hello.NumBins) != opts.NumBins {
		return fmt.Errorf("%w: stream announces %d bins, daemon expects %d",
			session.ErrGeometry, hello.NumBins, opts.NumBins)
	}
	conn.SetReadDeadline(time.Time{})

	id := conn.RemoteAddr().String()
	if err := mgr.Attach(id); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	defer func() {
		if stats, derr := mgr.Detach(id); derr == nil && opts.OnDetach != nil {
			opts.OnDetach(id, stats)
		}
	}()

	dec := transport.NewDecoder(conn)
	dec.SetExpectedBins(hello.NumBins)
	// The connection is the stream: no frame of it starts a new epoch.
	var seq transport.SeqTracker
	for {
		// Planes end to end: the wire carries float32 I/Q pairs, the
		// session queue stores float32 planes, and the pipeline consumes
		// them — no []complex128 frame is ever materialised on this path.
		f, err := dec.DecodePlanes()
		if err != nil {
			return err
		}
		switch v, missed := seq.Admit(f.Seq, false); v {
		case transport.SeqLate:
			continue
		case transport.SeqGap:
			mgr.NoteGap(id, missed)
		}
		switch err := mgr.SubmitPlanes(id, f.I, f.Q); {
		case err == nil:
		case errors.Is(err, session.ErrRateLimited):
			// Over budget: the frame is discarded, and the session
			// reports the hole to the pipeline; the stream lives on.
		default:
			return err
		}
	}
}
