package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"blinkradar/internal/obs"
)

// streamOf encodes a hello-less stream of n small frames and returns
// the bytes plus the offset of each frame.
func streamOf(t *testing.T, n int) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	offsets := make([]int, n)
	for i := 0; i < n; i++ {
		offsets[i] = buf.Len()
		if err := enc.Encode(Frame{Seq: uint64(i), Bins: []complex128{complex(float64(i), 0), 1i}}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), offsets
}

func TestDecoderResyncSkipsCorruptFrame(t *testing.T) {
	data, offsets := streamOf(t, 3)
	// Flip one payload byte of the middle frame: the CRC check fails.
	corrupt := append([]byte{}, data...)
	corrupt[offsets[1]+headerSize+2] ^= 0x40

	// Strict mode: the stream dies at the damaged frame.
	dec := NewDecoder(bytes.NewReader(corrupt))
	if f, err := dec.DecodePlanes(); err != nil || f.Seq != 0 {
		t.Fatalf("first frame: %v, %v", f, err)
	}
	if _, err := dec.DecodePlanes(); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("strict decode of corrupt frame: %v, want ErrCorruptFrame", err)
	}

	// Resync mode: the damaged frame is skipped, the tail survives.
	dec = NewDecoder(bytes.NewReader(corrupt))
	dec.EnableResync()
	var seqs []uint64
	for {
		f, err := dec.DecodePlanes()
		if err != nil {
			if err != io.EOF {
				t.Fatalf("resync decode: %v", err)
			}
			break
		}
		seqs = append(seqs, f.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 2 {
		t.Fatalf("resync delivered %v, want [0 2]", seqs)
	}
	frames, skipped := dec.Resyncs()
	if frames != 1 {
		t.Fatalf("%d resyncs, want 1", frames)
	}
	// The CRC failure consumed the frame whole, so realignment landed
	// exactly on the next header: no garbage bytes to discard.
	if skipped != 0 {
		t.Fatalf("resync skipped %d bytes, want 0 (corruption was in-frame)", skipped)
	}
}

func TestDecoderResyncDiscardsInterFrameGarbage(t *testing.T) {
	data, offsets := streamOf(t, 3)
	// Splice garbage between frames 0 and 1. The bad-magic header read
	// consumes 24 bytes — the garbage plus the head of frame 1 — so
	// frame 1 is collateral (it surfaces downstream as a seq gap) and
	// the scan realigns on frame 2.
	garbage := []byte{0xde, 0xad, 0xbe, 0xef, 0x00}
	spliced := append([]byte{}, data[:offsets[1]]...)
	spliced = append(spliced, garbage...)
	spliced = append(spliced, data[offsets[1]:]...)

	dec := NewDecoder(bytes.NewReader(spliced))
	dec.EnableResync()
	var seqs []uint64
	for {
		f, err := dec.DecodePlanes()
		if err != nil {
			break
		}
		seqs = append(seqs, f.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 2 {
		t.Fatalf("resync delivered %v, want [0 2]", seqs)
	}
	if _, skipped := dec.Resyncs(); skipped == 0 {
		t.Fatal("resync discarded 0 bytes despite spliced garbage")
	}
}

func TestDecoderExpectedBinsStopsPhantomPayload(t *testing.T) {
	data, offsets := streamOf(t, 3)
	// Corrupt the middle frame's bin-count field to a huge but in-range
	// value. The CRC would catch it eventually — but only after the
	// decoder commits to reading a ~500 KB phantom payload that this
	// stream does not contain.
	corrupt := append([]byte{}, data...)
	binary.BigEndian.PutUint32(corrupt[offsets[1]+20:], 60000)

	// Without the pin the phantom read swallows the rest of the stream:
	// the tail frame is lost to a truncation error.
	dec := NewDecoder(bytes.NewReader(corrupt))
	dec.EnableResync()
	if f, err := dec.DecodePlanes(); err != nil || f.Seq != 0 {
		t.Fatalf("first frame: %v, %v", f, err)
	}
	if _, err := dec.DecodePlanes(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("unpinned decode: %v, want a truncation error", err)
	}

	// Pinned to the true geometry, the bad count is corruption like any
	// other: fail fast, realign, deliver the tail.
	dec = NewDecoder(bytes.NewReader(corrupt))
	dec.EnableResync()
	dec.SetExpectedBins(2)
	var seqs []uint64
	for {
		f, err := dec.DecodePlanes()
		if err != nil {
			break
		}
		seqs = append(seqs, f.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 0 || seqs[1] != 2 {
		t.Fatalf("pinned resync delivered %v, want [0 2]", seqs)
	}
}

func TestServerDisconnectPolicyCutsSlowClient(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(nil, nil)
	srv.SetRegistry(reg)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	slow := &client{conn: a, ch: make(chan Frame, 1)}
	srv.clients[slow] = struct{}{}

	f := Frame{Bins: []complex128{1}}
	srv.broadcast(f) // fills the queue
	srv.broadcast(f) // overflows: client is cut

	if got := srv.NumClients(); got != 0 {
		t.Fatalf("%d clients after overflow, want 0 (disconnect policy)", got)
	}
	if got := reg.Counter("transport_server_slow_client_drops_total").Value(); got != 1 {
		t.Fatalf("slow client drops = %d, want 1", got)
	}
	if _, ok := <-drained(slow.ch); ok {
		t.Fatal("dropped client's channel must be closed after draining")
	}
}

// drained consumes the buffered frames off ch and returns it, so the
// caller can observe the close.
func drained(ch chan Frame) chan Frame {
	for len(ch) > 0 {
		<-ch
	}
	return ch
}

// stalledListener hands Serve one end of an in-memory pipe as its one
// connection. The test keeps the other end and never reads from it, and
// a pipe write blocks until its peer reads, so the server's first
// write, the hello, stalls whatever a socket buffer would have held.
type stalledListener struct {
	conn   net.Conn // returned by the first Accept
	addr   net.Addr
	closed chan struct{}
	once   sync.Once
}

func (l *stalledListener) Accept() (net.Conn, error) {
	if c := l.conn; c != nil {
		l.conn = nil
		return c, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *stalledListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *stalledListener) Addr() net.Addr { return l.addr }

// TestServerCutsStalledPeer checks that a client the broadcast cuts for
// falling behind is really disconnected. Its peer never reads, so the
// client's write loop blocks in the hello write while its queue fills.
// A cut that only closed the queue would leave that write blocked until
// the peer went away, and Serve, which joins every write loop, would not
// return after cancellation. The cut's write deadline must instead fail
// the write within drainTimeout.
func TestServerCutsStalledPeer(t *testing.T) {
	src := NewMatrixSource(testMatrix(t, 50), false, true)
	defer src.Close()
	server := NewServer(src, nil)
	reg := obs.NewRegistry()
	server.SetRegistry(reg)
	server.SetMinClients(1)

	conn, peer := net.Pipe()
	defer peer.Close()
	ln := &stalledListener{conn: conn, addr: conn.LocalAddr(), closed: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- server.Serve(ctx, ln) }()

	cuts := reg.Counter("transport_server_slow_client_drops_total")
	waitFor(t, 10*time.Second, func() bool { return cuts.Value() == 1 })
	cancel()
	select {
	case <-served:
	case <-time.After(3 * drainTimeout):
		t.Fatalf("Serve still running %v after cancellation: the cut client's write loop is blocked on a peer that never reads", 3*drainTimeout)
	}
}

// TestDialPinsHelloBinCount checks that Dial pins the client's decoder
// to the hello even without resync: a frame whose bin-count field is
// damaged (its payload intact) fails at its header with
// ErrCorruptFrame. An unpinned decoder would instead wait, until the
// read timeout, for a phantom payload the stream never sends.
func TestDialPinsHelloBinCount(t *testing.T) {
	const bins = 150
	hello := StreamHello{FrameRate: 25, BinSpacing: 0.0107, NumBins: bins}
	stream := frameBytes(t, testFrame(0, bins))
	bad := frameBytes(t, testFrame(1, bins))
	binary.BigEndian.PutUint32(bad[20:], bins^0x100) // 406 bins: a 3,252-byte payload
	stream = append(stream, bad...)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hold, served := make(chan struct{}), make(chan struct{})
	defer func() {
		close(hold)
		ln.Close()
		<-served
	}()
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if EncodeHello(conn, hello) == nil {
			conn.Write(stream)
		}
		<-hold // keep the connection open: nothing more is sent
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := Dial(ctx, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadTimeout(2 * time.Second)
	if f, err := c.Next(ctx); err != nil || f.Seq != 0 {
		t.Fatalf("first frame: seq %d, %v", f.Seq, err)
	}
	if _, err := c.Next(ctx); !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("frame with a damaged bin count: %v, want ErrCorruptFrame", err)
	}
}
