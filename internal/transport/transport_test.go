package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"blinkradar/internal/obs"
	"blinkradar/internal/rf"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := StreamHello{FrameRate: 25, BinSpacing: 0.0107, NumBins: 150}
	if err := EncodeHello(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello round trip %+v != %+v", got, want)
	}
}

func TestHelloValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeHello(&buf, StreamHello{}); err == nil {
		t.Fatal("zero hello must be rejected")
	}
	// Corrupt a valid hello.
	buf.Reset()
	if err := EncodeHello(&buf, StreamHello{FrameRate: 25, BinSpacing: 0.01, NumBins: 10}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5] ^= 0xFF
	if _, err := DecodeHello(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted hello must fail the CRC")
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(seed int64, rawBins uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(rawBins)%64 + 1
		frame := Frame{
			Seq:             rng.Uint64(),
			TimestampMicros: rng.Uint64(),
			Bins:            make([]complex128, n),
		}
		for i := range frame.Bins {
			// float32 payload: use values that survive the narrowing.
			frame.Bins[i] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
		}
		var buf bytes.Buffer
		enc := NewEncoder(&buf)
		if err := enc.Encode(frame); err != nil {
			return false
		}
		if err := enc.Flush(); err != nil {
			return false
		}
		got, err := NewDecoder(&buf).DecodePlanes()
		if err != nil {
			return false
		}
		if got.Seq != frame.Seq || got.TimestampMicros != frame.TimestampMicros || len(got.I) != n {
			return false
		}
		for i, z := range widen(got) {
			if z != frame.Bins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameCRCDetection(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Encode(Frame{Seq: 1, Bins: []complex128{1 + 2i, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[headerSize+2] ^= 0x01 // flip one payload bit
	if _, err := NewDecoder(bytes.NewReader(raw)).DecodePlanes(); err == nil {
		t.Fatal("bit flip must fail the CRC")
	}
}

func TestFrameValidation(t *testing.T) {
	enc := NewEncoder(io.Discard)
	if err := enc.Encode(Frame{}); err == nil {
		t.Fatal("empty frame must be rejected")
	}
	// Bad magic.
	raw := make([]byte, headerSize)
	if _, err := NewDecoder(bytes.NewReader(raw)).DecodePlanes(); err == nil {
		t.Fatal("zero magic must be rejected")
	}
	// Clean EOF at a packet boundary.
	if _, err := NewDecoder(bytes.NewReader(nil)).DecodePlanes(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream error %v, want io.EOF", err)
	}
}

func TestCaptureFileRoundTrip(t *testing.T) {
	m, err := rf.NewFrameMatrix(7, 5, 25, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for k := range m.Data {
		for b := range m.Data[k] {
			m.Data[k][b] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
		}
	}
	cr, err := NewCaptureReader(bytes.NewReader(writeMatrixCapture(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := cr.ReadMatrixFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFrames() != 7 || got.NumBins() != 5 || got.FrameRate != 25 {
		t.Fatalf("round trip dims %dx%d", got.NumFrames(), got.NumBins())
	}
	for k := range m.Data {
		for b := range m.Data[k] {
			if got.Data[k][b] != m.Data[k][b] {
				t.Fatalf("sample %d/%d differs", k, b)
			}
		}
	}
}

// TestReadCaptureEmpty checks that a complete capture holding no
// frames opens but yields no matrix.
func TestReadCaptureEmpty(t *testing.T) {
	data := writeTestCapture(t, StreamHello{FrameRate: 25, BinSpacing: 0.01, NumBins: 4}, 0)
	cr, err := NewCaptureReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cr.ReadMatrixFrom(0); err == nil {
		t.Fatal("frameless capture must be rejected")
	}
}

// testMatrix builds a small capture for server tests.
func testMatrix(t *testing.T, frames int) *rf.FrameMatrix {
	t.Helper()
	m, err := rf.NewFrameMatrix(frames, 8, 25, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.Data {
		m.Data[k][0] = complex(float64(k), 0)
	}
	return m
}

func TestServerClientStream(t *testing.T) {
	m := testMatrix(t, 50)
	src := NewMatrixSource(m, false, false)
	defer src.Close()
	server := NewServer(src, nil)
	server.SetMinClients(1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- server.Serve(ctx, ln) }()

	client, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := client.Hello(); got.NumBins != 8 || got.FrameRate != 25 {
		t.Fatalf("hello %+v", got)
	}
	var frames int
	err = client.Run(ctx, func(f PlaneFrame) error {
		if f.Seq != uint64(frames) {
			t.Errorf("frame %d has seq %d", frames, f.Seq)
		}
		if f.I[0] != float32(frames) || f.Q[0] != 0 {
			t.Errorf("frame %d payload %v%+vi", frames, f.I[0], f.Q[0])
		}
		frames++
		return nil
	})
	// The finite source ends the stream; the client sees a read error
	// or EOF, never a silent hang.
	if err == nil {
		t.Fatal("stream end must surface an error")
	}
	if frames != 50 {
		t.Fatalf("received %d frames, want 50", frames)
	}
	<-done
}

func TestServerMultipleClients(t *testing.T) {
	m := testMatrix(t, 30)
	src := NewMatrixSource(m, false, false)
	defer src.Close()
	server := NewServer(src, nil)
	server.SetMinClients(2)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go server.Serve(ctx, ln)

	counts := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			client, err := Dial(ctx, ln.Addr().String())
			if err != nil {
				counts <- -1
				return
			}
			defer client.Close()
			n := 0
			client.Run(ctx, func(PlaneFrame) error { n++; return nil })
			counts <- n
		}()
	}
	for i := 0; i < 2; i++ {
		if n := <-counts; n != 30 {
			t.Fatalf("client received %d frames, want 30", n)
		}
	}
}

func TestClientContextCancel(t *testing.T) {
	m := testMatrix(t, 10)
	// A looping paced source never ends on its own.
	src := NewMatrixSource(m, true, true)
	defer src.Close()
	server := NewServer(src, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serverCtx, serverCancel := context.WithCancel(context.Background())
	defer serverCancel()
	go server.Serve(serverCtx, ln)

	ctx, cancel := context.WithCancel(context.Background())
	client, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	err = client.Run(ctx, func(PlaneFrame) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestServeReapsContextWatcher(t *testing.T) {
	// Serve used to leak its context-watcher goroutine whenever the
	// pump exited on a source error before cancellation. Run many
	// short-lived serves against a never-cancelled context: the
	// goroutine count must come back down.
	base := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		src := NewMatrixSource(testMatrix(t, 1), false, false)
		server := NewServer(src, nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := server.Serve(context.Background(), ln); err == nil {
			t.Fatal("serve over a finite source must return the source error")
		}
		src.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d: context watchers leaked",
				base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSetSpeedContract(t *testing.T) {
	m := testMatrix(t, 5)
	// Unpaced sources cannot be re-paced.
	unpaced := NewMatrixSource(m, false, true)
	defer unpaced.Close()
	if err := unpaced.SetSpeed(2); err == nil {
		t.Fatal("SetSpeed on an unpaced source must error")
	}
	// Invalid speeds are rejected.
	paced := NewMatrixSource(m, true, true)
	defer paced.Close()
	if err := paced.SetSpeed(0); err == nil {
		t.Fatal("SetSpeed(0) must error")
	}
	if err := paced.SetSpeed(-1); err == nil {
		t.Fatal("negative speed must error")
	}
	// Before serving it succeeds...
	if err := paced.SetSpeed(100); err != nil {
		t.Fatalf("SetSpeed before serving: %v", err)
	}
	// ...and after the first frame is consumed it is refused.
	if _, err := paced.NextFrame(); err != nil {
		t.Fatal(err)
	}
	if err := paced.SetSpeed(2); err == nil {
		t.Fatal("SetSpeed after serving started must error")
	}
}

func TestServerMetrics(t *testing.T) {
	m := testMatrix(t, 20)
	src := NewMatrixSource(m, false, false)
	defer src.Close()
	server := NewServer(src, nil)
	server.SetMinClients(1)
	reg := obs.NewRegistry()
	server.SetRegistry(reg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- server.Serve(ctx, ln) }()

	client, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var frames int
	client.Run(ctx, func(PlaneFrame) error { frames++; return nil })
	<-done

	if got := reg.Counter("transport_server_frames_pumped_total").Value(); got != 20 {
		t.Errorf("frames pumped = %d, want 20", got)
	}
	if got := reg.Counter("transport_server_connects_total").Value(); got != 1 {
		t.Errorf("connects = %d, want 1", got)
	}
	if got := reg.Counter("transport_server_bytes_written_total").Value(); got == 0 {
		t.Error("bytes written = 0, want > 0")
	}
	if frames != 20 {
		t.Errorf("client received %d frames, want 20", frames)
	}
}

func TestMatrixSourceExhaustion(t *testing.T) {
	m := testMatrix(t, 3)
	src := NewMatrixSource(m, false, false)
	defer src.Close()
	for i := 0; i < 3; i++ {
		if _, err := src.NextFrame(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, err := src.NextFrame(); err == nil {
		t.Fatal("exhausted source must error")
	}
	// Looping source wraps instead.
	loop := NewMatrixSource(m, false, true)
	defer loop.Close()
	for i := 0; i < 10; i++ {
		if _, err := loop.NextFrame(); err != nil {
			t.Fatalf("looping frame %d: %v", i, err)
		}
	}
}

// orderListener records whether the server closes its listener or the
// connection it accepted first. Close waits up to closeWait for the
// accepted connection to close before it records its own, so a server
// that disconnects clients while still accepting is caught on every
// run, not only when the scheduler interleaves the two that way.
type orderListener struct {
	net.Listener
	closeWait  time.Duration
	connClosed chan struct{}
	connOnce   sync.Once
	lnOnce     sync.Once

	mu     sync.Mutex
	events []string
}

func (l *orderListener) record(ev string) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *orderListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &orderConn{Conn: c, l: l}, nil
}

func (l *orderListener) Close() error {
	l.lnOnce.Do(func() {
		select {
		case <-l.connClosed:
		case <-time.After(l.closeWait):
		}
		l.record("listener")
	})
	return l.Listener.Close()
}

type orderConn struct {
	net.Conn
	l *orderListener
}

func (c *orderConn) Close() error {
	c.l.connOnce.Do(func() {
		c.l.record("conn")
		close(c.l.connClosed)
	})
	return c.Conn.Close()
}

// TestServeClosesListenerBeforeClients pins the shutdown order: Serve
// stops accepting before it disconnects any client, whether the source
// ends or the context is cancelled. A client that redials the moment
// its stream ends (ReconnectingClient does) must find the port closed,
// not a dying server that accepts it, sends a hello and hangs up.
func TestServeClosesListenerBeforeClients(t *testing.T) {
	for _, tc := range []struct {
		name   string
		src    func() *MatrixSource
		cancel bool
	}{
		{"source ends", func() *MatrixSource { return NewMatrixSource(testMatrix(t, 5), false, false) }, false},
		{"context cancelled", func() *MatrixSource { return NewMatrixSource(testMatrix(t, 5), true, true) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.src()
			defer src.Close()
			server := NewServer(src, nil)
			server.SetMinClients(1)
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := &orderListener{Listener: inner, closeWait: time.Second, connClosed: make(chan struct{})}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			served := make(chan error, 1)
			go func() { served <- server.Serve(ctx, ln) }()

			client, err := Dial(ctx, inner.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Next(ctx); err != nil {
				t.Fatalf("first frame: %v", err)
			}
			if tc.cancel {
				cancel()
			}
			<-served

			ln.mu.Lock()
			defer ln.mu.Unlock()
			if len(ln.events) != 2 || ln.events[0] != "listener" || ln.events[1] != "conn" {
				t.Fatalf("shutdown closed %v, want [listener conn]", ln.events)
			}
		})
	}
}
