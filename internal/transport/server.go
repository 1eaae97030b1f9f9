package transport

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"blinkradar/internal/obs"
	"blinkradar/internal/rf"
)

// MatrixSource replays a recorded frame matrix, optionally pacing to
// real time and looping forever.
type MatrixSource struct {
	m    *rf.FrameMatrix
	next int
	loop bool

	mu      sync.Mutex
	ticker  *time.Ticker
	started bool
}

// NewMatrixSource wraps a frame matrix. With pace true, NextFrame waits
// one frame period between frames; with loop true, the capture repeats
// indefinitely.
func NewMatrixSource(m *rf.FrameMatrix, pace, loop bool) *MatrixSource {
	s := &MatrixSource{m: m, loop: loop}
	if pace {
		s.ticker = time.NewTicker(time.Duration(float64(time.Second) / m.FrameRate))
	}
	return s
}

// SetSpeed re-paces the source at speed times real time. The contract
// is strict: the source must be paced, speed must be positive, and
// serving must not have started (re-pacing would race the frame loop),
// otherwise SetSpeed returns an error and leaves the pacing unchanged.
func (s *MatrixSource) SetSpeed(speed float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ticker == nil {
		return errors.New("transport: SetSpeed on an unpaced source")
	}
	if speed <= 0 {
		return fmt.Errorf("transport: speed must be positive, got %g", speed)
	}
	if s.started {
		return errors.New("transport: SetSpeed after serving started")
	}
	s.ticker.Stop()
	s.ticker = time.NewTicker(time.Duration(float64(time.Second) / (s.m.FrameRate * speed)))
	return nil
}

// Hello describes the stream geometry.
func (s *MatrixSource) Hello() StreamHello {
	return StreamHello{
		FrameRate:  s.m.FrameRate,
		BinSpacing: s.m.BinSpacing,
		NumBins:    uint32(s.m.NumBins()),
	}
}

// NextFrame blocks until the next frame is due and returns its range
// profile (which the server copies before reuse is allowed), or an
// error once a non-looping capture is exhausted.
func (s *MatrixSource) NextFrame() ([]complex128, error) {
	s.mu.Lock()
	s.started = true
	ticker := s.ticker
	s.mu.Unlock()
	if s.next >= s.m.NumFrames() {
		if !s.loop {
			return nil, fmt.Errorf("transport: capture exhausted after %d frames", s.next)
		}
		s.next = 0
	}
	if ticker != nil {
		<-ticker.C
	}
	frame := s.m.Data[s.next]
	s.next++
	return frame, nil
}

// Close releases the pacing ticker.
func (s *MatrixSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// Server broadcasts a frame source to every connected TCP client — the
// radar daemon half of the deployment. A client whose queue overflows
// is disconnected rather than allowed to stall the radio.
type Server struct {
	src    *MatrixSource
	logger *log.Logger
	// minClients gates the pump: frames are not consumed from the
	// source until this many subscribers are connected. Useful for
	// finite replay sources that would otherwise drain before the
	// first client arrives.
	minClients int
	startSeq   uint64
	// hook is the frame middleware (fault injection, filtering); see
	// SetFrameHook.
	hook func(Frame) []Frame
	// writeTimeout bounds each per-client frame write (0 = none).
	writeTimeout time.Duration

	mu      sync.Mutex
	clients map[*client]struct{}
	seq     uint64
	epoch   time.Time
	// conns joins every per-client write loop so Serve does not return
	// while goroutines it spawned still run.
	conns sync.WaitGroup

	// Metrics (nil-safe no-ops until SetRegistry attaches a registry).
	mFramesPumped *obs.Counter
	mSlowDrops    *obs.Counter
	mBytesWritten *obs.Counter
	mConnects     *obs.Counter
	gClients      *obs.Gauge
	gQueueDepth   *obs.Gauge
}

type client struct {
	conn net.Conn
	ch   chan Frame
}

// clientQueue bounds the per-client backlog (4 s at the default rate).
const clientQueue = 100

// NewServer creates a server over the given source. A nil logger
// discards diagnostics.
func NewServer(src *MatrixSource, logger *log.Logger) *Server {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	return &Server{
		src:     src,
		logger:  logger,
		clients: make(map[*client]struct{}),
		epoch:   time.Now(),
	}
}

// SetRegistry attaches an observability registry. Call before Serve.
// Exported metrics:
//
//	transport_server_frames_pumped_total    frames read from the source
//	transport_server_slow_client_drops_total clients cut for falling behind
//	transport_server_bytes_written_total    wire bytes sent to clients
//	transport_server_connects_total         client connections accepted
//	transport_server_clients                current subscriber count
//	transport_server_max_queue_depth        deepest per-client backlog at
//	                                        the last broadcast
func (s *Server) SetRegistry(r *obs.Registry) {
	s.mFramesPumped = r.Counter("transport_server_frames_pumped_total")
	s.mSlowDrops = r.Counter("transport_server_slow_client_drops_total")
	s.mBytesWritten = r.Counter("transport_server_bytes_written_total")
	s.mConnects = r.Counter("transport_server_connects_total")
	s.gClients = r.Gauge("transport_server_clients")
	s.gQueueDepth = r.Gauge("transport_server_max_queue_depth")
}

// SetFrameHook installs a per-frame middleware invoked on the pump
// goroutine after sequence assignment and before broadcast. The hook
// may return the frame unchanged, mutate it, drop it (empty return) or
// emit several frames (duplication, reordering) — the chaos package's
// injectors compose through exactly this surface. Dropped frames still
// consume a sequence number, so downstream gap accounting sees them as
// lost. Call before Serve; a nil hook passes frames through.
func (s *Server) SetFrameHook(hook func(Frame) []Frame) { s.hook = hook }

// SetWriteTimeout bounds each per-client frame write. A peer that
// stops draining its socket for longer than d fails the write and is
// dropped, instead of pinning the write loop (and, at shutdown, the
// Serve join) indefinitely. Zero disables the deadline. Call before
// Serve.
func (s *Server) SetWriteTimeout(d time.Duration) { s.writeTimeout = d }

// SetStartSeq makes the stream's sequence numbers begin at n instead of
// zero — a daemon that persists its frame counter across restarts uses
// this so downstream gap accounting sees the outage as missed frames
// rather than a new epoch. Call before Serve.
func (s *Server) SetStartSeq(n uint64) { s.startSeq = n }

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// countingWriter forwards to an io.Writer while accumulating the byte
// total in a (possibly nil) counter.
type countingWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.c.Add(uint64(n))
	return n, err
}

// Serve accepts clients on ln and pumps frames until the context is
// cancelled or the source fails. It always closes the listener, and it
// joins every goroutine it spawned — the context watcher, the accept
// loop and all per-client write loops — before returning, so a
// restarting daemon never strands writers on dead connections.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	done := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		select {
		case <-ctx.Done():
			ln.Close()
		case <-done:
		}
	}()
	aux.Add(1)
	go func() {
		defer aux.Done()
		s.acceptLoop(ln)
	}()
	err := s.pump(ctx)
	close(done)
	ln.Close()
	aux.Wait()
	// Clients are disconnected only now, after the listener closed and
	// the accept loop exited: a client that redials the moment its
	// stream ends finds the port closed, instead of being accepted by a
	// dying server that sends it a hello and no frames.
	s.closeAll()
	s.conns.Wait()
	return err
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		c := &client{conn: conn, ch: make(chan Frame, clientQueue)}
		s.mu.Lock()
		s.clients[c] = struct{}{}
		n := len(s.clients)
		s.mu.Unlock()
		s.mConnects.Inc()
		s.gClients.Set(float64(n))
		s.logger.Printf("client connected: %s", conn.RemoteAddr())
		s.conns.Add(1)
		go func() {
			defer s.conns.Done()
			s.writeLoop(c)
		}()
	}
}

func (s *Server) writeLoop(c *client) {
	defer s.drop(c)
	w := countingWriter{w: c.conn, c: s.mBytesWritten}
	if err := EncodeHello(w, s.src.Hello()); err != nil {
		s.logger.Printf("hello to %s failed: %v", c.conn.RemoteAddr(), err)
		return
	}
	enc := NewEncoder(w)
	for f := range c.ch {
		if s.writeTimeout > 0 {
			_ = c.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		if err := enc.Encode(f); err != nil {
			s.logger.Printf("send to %s failed: %v", c.conn.RemoteAddr(), err)
			return
		}
		// Flush when the queue drains so frames are not held back.
		if len(c.ch) == 0 {
			if err := enc.Flush(); err != nil {
				return
			}
		}
	}
}

func (s *Server) drop(c *client) {
	s.mu.Lock()
	if _, ok := s.clients[c]; ok {
		delete(s.clients, c)
		close(c.ch)
	}
	n := len(s.clients)
	s.mu.Unlock()
	s.gClients.Set(float64(n))
	c.conn.Close()
}

// SetMinClients makes the pump wait for n subscribers before reading
// the source. Call before Serve.
func (s *Server) SetMinClients(n int) { s.minClients = n }

// pump reads frames from the source and fans them out.
func (s *Server) pump(ctx context.Context) error {
	for s.minClients > 0 && s.NumClients() < s.minClients {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		bins, err := s.src.NextFrame()
		if err != nil {
			return fmt.Errorf("transport: source: %w", err)
		}
		f := Frame{
			Seq:             s.startSeq + s.seq,
			TimestampMicros: uint64(time.Since(s.epoch).Microseconds()),
			Bins:            append([]complex128(nil), bins...),
		}
		s.seq++
		s.mFramesPumped.Inc()
		if s.hook == nil {
			s.broadcast(f)
			continue
		}
		for _, out := range s.hook(f) {
			s.broadcast(out)
		}
	}
}

func (s *Server) broadcast(f Frame) {
	s.mu.Lock()
	var stale []*client
	maxDepth := 0
	for c := range s.clients {
		select {
		case c.ch <- f:
			if d := len(c.ch); d > maxDepth {
				maxDepth = d
			}
		default:
			// Client cannot keep up with the radio; cut it loose.
			stale = append(stale, c)
		}
	}
	for _, c := range stale {
		s.disconnect(c)
		s.mSlowDrops.Inc()
		s.logger.Printf("dropping slow client %s", c.conn.RemoteAddr())
	}
	n := len(s.clients)
	s.mu.Unlock()
	s.gQueueDepth.Set(float64(maxDepth))
	if len(stale) > 0 {
		s.gClients.Set(float64(n))
	}
}

// drainTimeout bounds how long a disconnecting client's write loop may
// keep flushing queued frames. Without it a stalled peer would pin its
// write loop, and Serve's shutdown join, until the peer went away.
const drainTimeout = 2 * time.Second

// disconnect removes c from the broadcast set, whether it fell behind
// or the server is shutting down. Its queue is closed so the write loop
// drains the frames c is still owed and exits, and a write deadline
// bounds that drain so a peer that stopped reading cannot block the
// loop. Caller holds s.mu.
func (s *Server) disconnect(c *client) {
	delete(s.clients, c)
	close(c.ch)
	// Setting a deadline fails only on a closed connection, whose write
	// loop has already failed.
	_ = c.conn.SetWriteDeadline(time.Now().Add(drainTimeout))
}

// closeAll disconnects every client.
func (s *Server) closeAll() {
	s.mu.Lock()
	for c := range s.clients {
		s.disconnect(c)
	}
	s.mu.Unlock()
	s.gClients.Set(0)
}

// NumClients reports the current subscriber count.
func (s *Server) NumClients() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.clients)
}
