package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
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

func TestServerDropFramesPolicyKeepsSlowClient(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(nil, nil) // broadcast never touches the source
	srv.SetRegistry(reg)
	srv.SetSlowPolicy(DropFramesForSlowClients)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	slow := &client{conn: a, ch: make(chan Frame, 2)}
	srv.clients[slow] = struct{}{}

	// Fill the queue, then broadcast into the full queue twice.
	f := Frame{Bins: []complex128{1}}
	srv.broadcast(f)
	srv.broadcast(f)
	for i := 0; i < 2; i++ {
		srv.broadcast(f)
	}

	if got := srv.NumClients(); got != 1 {
		t.Fatalf("%d clients after overflow, want 1 (drop-frames keeps the connection)", got)
	}
	if got := reg.Counter("transport_server_slow_frame_drops_total").Value(); got != 2 {
		t.Fatalf("slow frame drops = %d, want 2", got)
	}
	if got := reg.Counter("transport_server_slow_client_drops_total").Value(); got != 0 {
		t.Fatalf("slow client drops = %d, want 0", got)
	}
	// The queued frames are still there for the client to drain.
	if got := len(slow.ch); got != 2 {
		t.Fatalf("queue depth %d, want 2", got)
	}
}

func TestServerDisconnectPolicyCutsSlowClient(t *testing.T) {
	reg := obs.NewRegistry()
	srv := NewServer(nil, nil)
	srv.SetRegistry(reg)
	// Default policy: DisconnectSlowClients.

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
