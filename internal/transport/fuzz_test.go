package transport

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"testing"
)

// frameBytes encodes f into a fresh byte slice.
func frameBytes(tb testing.TB, f Frame) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.Encode(f); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame drives the frame decoder — in strict and resync mode,
// pinned and unpinned — with arbitrary byte streams and checks its
// structural invariants: no panics, every decoded frame has a plausible
// bin count consistent with the pin, the decoder never fabricates more
// payload than the input held (its allocations are bounded by the
// input), and every accepted frame survives an encode/decode round
// trip bit-exactly.
func FuzzDecodeFrame(f *testing.F) {
	valid := frameBytes(f, Frame{Seq: 7, TimestampMicros: 12345, Bins: []complex128{1 + 2i, complex(-0.5, 0.25), 0, complex(3e4, -3e4)}})
	f.Add(valid, uint8(0))
	f.Add(valid[:len(valid)-3], uint8(1))                       // truncated tail
	f.Add(append([]byte{0xde, 0xad, 0xbe}, valid...), uint8(1)) // garbage prefix, resync recovers
	f.Add(append(append([]byte{}, valid...), valid...), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0xb1, 0x1c, 0x01, 0x00}, uint8(1)) // magic+version, then truncation
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		if len(data) > 1<<20 {
			return // decode cost is linear in the input; keep iterations fast
		}
		dec := NewDecoder(bytes.NewReader(data))
		resync := mode&1 != 0
		if resync {
			dec.EnableResync()
		}
		const pinned = 4 // matches the seed frame's bin count
		if mode&2 != 0 {
			dec.SetExpectedBins(pinned)
		}
		var consumed int
		for {
			pf, err := dec.DecodePlanes()
			if err != nil {
				break // EOF, truncation, or (strict mode) corruption
			}
			fr := Frame{Seq: pf.Seq, TimestampMicros: pf.TimestampMicros, Bins: widen(pf)}
			n := len(fr.Bins)
			if n < 1 || n > MaxBins {
				t.Fatalf("decoded frame with %d bins, want 1..%d", n, MaxBins)
			}
			if mode&2 != 0 && n != pinned {
				t.Fatalf("pinned decoder produced %d bins, want %d", n, pinned)
			}
			// A CRC-valid frame can only come from bytes actually present
			// in the input, so total decoded wire size is bounded by it.
			consumed += headerSize + n*8 + 4
			if consumed > len(data) {
				t.Fatalf("decoded %d wire bytes from a %d-byte input", consumed, len(data))
			}
			// Payloads are float32 on the wire, so a decoded frame
			// re-encodes bit-exactly.
			redec := NewDecoder(bytes.NewReader(frameBytes(t, fr)))
			back, err := redec.DecodePlanes()
			if err != nil {
				t.Fatalf("re-decoding an accepted frame: %v", err)
			}
			if back.Seq != fr.Seq || back.TimestampMicros != fr.TimestampMicros || len(back.I) != n {
				t.Fatalf("round trip changed the frame: %+v != %+v", back, fr)
			}
			backBins := widen(back)
			for i := range fr.Bins {
				a, b := fr.Bins[i], backBins[i]
				same := func(x, y float64) bool {
					return math.Float64bits(x) == math.Float64bits(y)
				}
				if !same(real(a), real(b)) || !same(imag(a), imag(b)) {
					t.Fatalf("bin %d changed in round trip: %v != %v", i, a, b)
				}
			}
		}
		if !resync {
			return
		}
		// Resync accounting never exceeds the input either.
		skippedFrames, skippedBytes := dec.Resyncs()
		if skippedBytes > uint64(len(data)) {
			t.Fatalf("resync skipped %d bytes of a %d-byte input", skippedBytes, len(data))
		}
		if skippedFrames > uint64(len(data)) {
			t.Fatalf("resync skipped %d frames in a %d-byte input", skippedFrames, len(data))
		}
	})
}

// FuzzDecodeHello checks the hello decoder: no panics, anything it
// accepts is plausible (finite positive rates, in-range bin count), and
// accepted hellos survive an encode/decode round trip.
func FuzzDecodeHello(f *testing.F) {
	var buf bytes.Buffer
	if err := EncodeHello(&buf, StreamHello{FrameRate: 25, BinSpacing: 0.0107, NumBins: 40}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	corrupt := append([]byte{}, valid...)
	corrupt[5] ^= 0xff
	f.Add(corrupt)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := DecodeHello(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(h.FrameRate > 0) || math.IsInf(h.FrameRate, 0) {
			t.Fatalf("accepted non-finite frame rate %v", h.FrameRate)
		}
		if !(h.BinSpacing > 0) || math.IsInf(h.BinSpacing, 0) {
			t.Fatalf("accepted non-finite bin spacing %v", h.BinSpacing)
		}
		if h.NumBins < 1 || h.NumBins > MaxBins {
			t.Fatalf("accepted bin count %d, want 1..%d", h.NumBins, MaxBins)
		}
		var out bytes.Buffer
		if err := EncodeHello(&out, h); err != nil {
			t.Fatalf("re-encoding an accepted hello: %v", err)
		}
		back, err := DecodeHello(&out)
		if err != nil {
			t.Fatalf("re-decoding an accepted hello: %v", err)
		}
		if back != h {
			t.Fatalf("round trip changed the hello: %+v != %+v", back, h)
		}
	})
}

// FuzzCaptureReader drives the capture reader with arbitrary bytes and
// checks the recovery contract's structural invariants: no panics, no
// unbounded allocation (every recovered frame is CRC-framed data that
// was physically present in the input, so the recovered wire size is
// bounded by the input size), geometry always plausible, every indexed
// frame readable, and the frame count stable under re-reads and seeks.
func FuzzCaptureReader(f *testing.F) {
	whole := writeTestCapture(f, testHello, 5)
	frameSize := frameWireSize(int(testHello.NumBins))
	f.Add(whole)
	f.Add(whole[:len(whole)-3])                           // torn end marker
	f.Add(whole[:captureHeaderSize+50])                   // torn mid-frame
	f.Add(whole[:captureHeaderSize])                      // header only
	f.Add(whole[:9])                                      // torn mid-header
	f.Add(append(append([]byte{}, whole...), 0xB1, 0x1C)) // bytes after the end marker
	corrupt := append([]byte{}, whole...)
	corrupt[captureHeaderSize+2*frameSize+30] ^= 0xff // damaged middle frame
	f.Add(corrupt)
	f.Add(withVersion(whole, 1)) // v1 header
	// A bare wire dump (stream hello + frame) is malformed input: the
	// reader must refuse it, not panic.
	var dump bytes.Buffer
	if err := EncodeHello(&dump, testHello); err != nil {
		f.Fatal(err)
	}
	f.Add(append(dump.Bytes(), frameBytes(f, testFrame(0, int(testHello.NumBins)))...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		cr, err := NewCaptureReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		h := cr.Header()
		if !plausibleHello(h.Hello) {
			t.Fatalf("accepted implausible geometry %+v", h.Hello)
		}
		if wire := cr.NumFrames() * frameWireSize(int(h.Hello.NumBins)); wire > len(data) {
			t.Fatalf("index claims %d wire bytes of frames in a %d-byte input", wire, len(data))
		}
		if terr := cr.Truncated(); terr != nil && !errors.Is(terr, ErrTruncatedCapture) {
			t.Fatalf("Truncated: untyped damage report %v", terr)
		}
		read := 0
		for {
			fr, err := cr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				// The scan validated every indexed frame at open.
				t.Fatalf("Next at indexed frame %d: %v", read, err)
			}
			if len(fr.I) != int(h.Hello.NumBins) || len(fr.Q) != int(h.Hello.NumBins) {
				t.Fatalf("frame %d has %d/%d bins, header pins %d", read, len(fr.I), len(fr.Q), h.Hello.NumBins)
			}
			read++
		}
		if read != cr.NumFrames() {
			t.Fatalf("read %d frames from a %d-frame index", read, cr.NumFrames())
		}
		// Re-seeking to 0 reproduces the first frame (the index is
		// stable, and indexed reads re-validate the CRC).
		if read > 0 {
			if err := cr.Seek(0); err != nil {
				t.Fatal(err)
			}
			if _, err := cr.Next(); err != nil {
				t.Fatalf("re-read of a frame that decoded once: %v", err)
			}
		}
	})
}

// FuzzCaptureRoundTrip is the write→read property fuzz: for arbitrary
// geometry, frame count, contents, and cut point, a capture written by
// CaptureWriter is its header, its frames and the end marker, reads
// back exactly — and its every-byte-truncation behaviour matches the
// spec (intact prefix + ErrTruncatedCapture).
func FuzzCaptureRoundTrip(f *testing.F) {
	f.Add(uint8(5), uint8(8), int64(1), uint32(1<<30))
	f.Add(uint8(1), uint8(1), int64(2), uint32(0))
	f.Add(uint8(40), uint8(3), int64(3), uint32(200))
	f.Fuzz(func(t *testing.T, nFrames, nBins uint8, seed int64, cut uint32) {
		n := int(nFrames)%48 + 1
		bins := int(nBins)%24 + 1
		hello := StreamHello{FrameRate: 25, BinSpacing: 0.0107, NumBins: uint32(bins)}
		rng := rand.New(rand.NewSource(seed))
		frames := make([]Frame, n)
		for k := range frames {
			frames[k] = Frame{Seq: rng.Uint64(), TimestampMicros: rng.Uint64()}
			frames[k].Bins = make([]complex128, bins)
			for i := range frames[k].Bins {
				// float32-exact values so the read-back comparison is ==.
				frames[k].Bins[i] = complex(float64(float32(rng.NormFloat64())), float64(float32(rng.NormFloat64())))
			}
		}
		var buf bytes.Buffer
		cw, err := NewCaptureWriter(&buf, hello, rng.Uint64())
		if err != nil {
			t.Fatal(err)
		}
		cw.every = int(seed)%5 + 1
		for _, fr := range frames {
			if err := cw.WriteFrame(fr); err != nil {
				t.Fatal(err)
			}
		}
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		if want := captureHeaderSize + n*frameWireSize(bins) + len(captureEnd); len(data) != want {
			t.Fatalf("capture of %d frames is %d bytes, want %d", n, len(data), want)
		}

		verify := func(cr *CaptureReader, want int) {
			t.Helper()
			if cr.NumFrames() != want {
				t.Fatalf("NumFrames = %d, want %d", cr.NumFrames(), want)
			}
			for k := 0; k < want; k++ {
				fr, err := cr.Next()
				if err != nil {
					t.Fatalf("frame %d: %v", k, err)
				}
				if fr.Seq != frames[k].Seq || fr.TimestampMicros != frames[k].TimestampMicros {
					t.Fatalf("frame %d header mismatch", k)
				}
				for i, got := range widen(fr) {
					if got != frames[k].Bins[i] {
						t.Fatalf("frame %d bin %d: %v != %v", k, i, got, frames[k].Bins[i])
					}
				}
			}
		}

		cr, err := NewCaptureReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("whole capture: %v", err)
		}
		if terr := cr.Truncated(); terr != nil {
			t.Fatalf("whole capture truncated: %v", terr)
		}
		verify(cr, n)

		at := int(cut) % len(data)
		cr, err = NewCaptureReader(bytes.NewReader(data[:at]))
		if at < captureHeaderSize {
			if err == nil || !errors.Is(err, ErrTruncatedCapture) {
				t.Fatalf("cut %d: open = %v", at, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("cut %d: %v", at, err)
		}
		want := (at - captureHeaderSize) / frameWireSize(bins)
		if want > n {
			want = n
		}
		if terr := cr.Truncated(); !errors.Is(terr, ErrTruncatedCapture) {
			t.Fatalf("cut %d: Truncated = %v", at, terr)
		}
		verify(cr, want)
	})
}
