package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"testing"

	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// testHello is the geometry used by most capture tests.
var testHello = StreamHello{FrameRate: 25, BinSpacing: 0.0107, NumBins: 8}

// testFrame builds frame k with float32-exact samples, so comparisons
// after the float32 wire round trip are bit-exact.
func testFrame(k int, bins int) Frame {
	f := Frame{Seq: uint64(k), TimestampMicros: uint64(k * 40000)}
	f.Bins = make([]complex128, bins)
	for i := range f.Bins {
		f.Bins[i] = complex(float64(k*bins+i), float64(-i))
	}
	return f
}

// writeTestCapture builds a finished capture with n frames.
func writeTestCapture(tb testing.TB, hello StreamHello, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf, hello, 1700000000000000)
	if err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < n; k++ {
		if err := cw.WriteFrame(testFrame(k, int(hello.NumBins))); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// writeMatrixCapture writes a frame matrix through CaptureWriter,
// stamping frames as radarsim does, and returns the finished capture.
func writeMatrixCapture(tb testing.TB, m *rf.FrameMatrix) []byte {
	tb.Helper()
	var buf bytes.Buffer
	hello := StreamHello{FrameRate: m.FrameRate, BinSpacing: m.BinSpacing, NumBins: uint32(m.NumBins())}
	cw, err := NewCaptureWriter(&buf, hello, 0)
	if err != nil {
		tb.Fatal(err)
	}
	for k, bins := range m.Data {
		f := Frame{Seq: uint64(k), TimestampMicros: TimestampMicros(m.FrameTime(k)), Bins: bins}
		if err := cw.WriteFrame(f); err != nil {
			tb.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withVersion returns a copy of a capture whose header announces
// format version v, with the header CRC recomputed, so only the
// version can make a reader refuse it.
func withVersion(data []byte, v uint16) []byte {
	out := append([]byte{}, data...)
	binary.BigEndian.PutUint16(out[8:], v)
	binary.BigEndian.PutUint32(out[40:], crc32.ChecksumIEEE(out[:40]))
	return out
}

// widen returns a plane frame's samples as complex values, the form
// the encode side writes, for bit-exact comparisons.
func widen(f PlaneFrame) []complex128 {
	return iq.Planes32{I: f.I, Q: f.Q}.ToComplex(make([]complex128, len(f.I)))
}

// checkFrames reads the capture front to back and verifies it yields
// exactly frames 0..want-1, each bit-exact, then a clean io.EOF.
func checkFrames(t *testing.T, cr *CaptureReader, want int) {
	t.Helper()
	if cr.NumFrames() != want {
		t.Fatalf("NumFrames = %d, want %d", cr.NumFrames(), want)
	}
	if err := cr.Seek(0); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < want; k++ {
		f, err := cr.Next()
		if err != nil {
			t.Fatalf("Next at frame %d: %v", k, err)
		}
		ref := testFrame(k, int(cr.Header().Hello.NumBins))
		if f.Seq != ref.Seq || f.TimestampMicros != ref.TimestampMicros {
			t.Fatalf("frame %d header mismatch: %+v", k, f)
		}
		got := widen(f)
		for i := range ref.Bins {
			if got[i] != ref.Bins[i] {
				t.Fatalf("frame %d bin %d = %v, want %v", k, i, got[i], ref.Bins[i])
			}
		}
	}
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("Next past end = %v, want io.EOF", err)
	}
}

// TestCaptureRoundTrip checks a finished capture's layout — header,
// frames, end marker and nothing else — and that it reads back clean.
func TestCaptureRoundTrip(t *testing.T) {
	const n = 17
	data := writeTestCapture(t, testHello, n)
	if want := captureHeaderSize + n*frameWireSize(int(testHello.NumBins)) + len(captureEnd); len(data) != want {
		t.Fatalf("capture is %d bytes, want header + frames + end marker = %d", len(data), want)
	}
	cr, err := NewCaptureReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	h := cr.Header()
	if h.Hello != testHello {
		t.Fatalf("Hello = %+v, want %+v", h.Hello, testHello)
	}
	if h.StartTimeMicros != 1700000000000000 {
		t.Fatalf("StartTimeMicros = %d", h.StartTimeMicros)
	}
	if err := cr.Truncated(); err != nil {
		t.Fatalf("complete capture reports truncation: %v", err)
	}
	checkFrames(t, cr, n)
}

// TestCaptureRefusesV1 checks that a capture of an earlier format
// version is refused with an error naming its version, not read as a
// torn v2 file.
func TestCaptureRefusesV1(t *testing.T) {
	v1 := withVersion(writeTestCapture(t, testHello, 3), 1)
	cr, err := NewCaptureReader(bytes.NewReader(v1))
	if err == nil {
		t.Fatalf("v1 capture opened with %d frames", cr.NumFrames())
	}
	if !strings.Contains(err.Error(), "version 1") || errors.Is(err, ErrTruncatedCapture) {
		t.Fatalf("v1 capture refused with %v, want an error naming version 1", err)
	}
}

func TestCaptureSeek(t *testing.T) {
	const n = 12
	data := writeTestCapture(t, testHello, n)
	cr, err := NewCaptureReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{5, 0, 11, 3, 3} {
		if err := cr.Seek(k); err != nil {
			t.Fatal(err)
		}
		f, err := cr.Next()
		if err != nil {
			t.Fatalf("Next after Seek(%d): %v", k, err)
		}
		if f.Seq != uint64(k) {
			t.Fatalf("Seek(%d) landed on seq %d", k, f.Seq)
		}
		// Sequential read continues from there.
		if k+1 < n {
			f, err = cr.Next()
			if err != nil || f.Seq != uint64(k+1) {
				t.Fatalf("sequential Next after Seek(%d): seq %d, err %v", k, f.Seq, err)
			}
		}
	}
	if err := cr.Seek(n); err != nil {
		t.Fatalf("Seek to end: %v", err)
	}
	if _, err := cr.Next(); err != io.EOF {
		t.Fatalf("Next at end = %v, want io.EOF", err)
	}
	if err := cr.Seek(-1); err == nil {
		t.Fatal("Seek(-1) should fail")
	}
	if err := cr.Seek(n + 1); err == nil {
		t.Fatal("Seek past end should fail")
	}
}

// TestCaptureReaderRefusesHelloHeaded checks that a bare wire dump —
// a stream hello followed by encoded frames, with no capture header —
// is not a capture, and the reader refuses it.
func TestCaptureReaderRefusesHelloHeaded(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeHello(&buf, testHello); err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(&buf)
	for k := 0; k < 9; k++ {
		if err := enc.Encode(testFrame(k, int(testHello.NumBins))); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if cr, err := NewCaptureReader(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatalf("hello-headed dump opened as a capture of %d frames", cr.NumFrames())
	}
}

// TestCaptureTruncationEveryByte is the boundary-cut matrix from the
// issue, taken to its limit: the capture is cut at every byte offset —
// mid-header, every mid-frame position, every mid-marker position —
// and the reader must recover exactly the intact frame prefix with
// ErrTruncatedCapture. Cuts inside the file header cannot even
// identify the capture and fail to open, still with the typed error.
func TestCaptureTruncationEveryByte(t *testing.T) {
	const n = 6
	data := writeTestCapture(t, testHello, n)
	frameSize := frameWireSize(int(testHello.NumBins))
	for cut := 0; cut < len(data); cut++ {
		cr, err := NewCaptureReader(bytes.NewReader(data[:cut]))
		if cut < captureHeaderSize {
			if err == nil {
				t.Fatalf("cut %d: opened a capture with no complete header", cut)
			}
			if !errors.Is(err, ErrTruncatedCapture) {
				t.Fatalf("cut %d: open error %v does not wrap ErrTruncatedCapture", cut, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d: open failed: %v", cut, err)
		}
		wantFrames := (cut - captureHeaderSize) / frameSize
		if wantFrames > n {
			wantFrames = n
		}
		terr := cr.Truncated()
		if terr == nil {
			t.Fatalf("cut %d: truncated capture reports clean", cut)
		}
		if !errors.Is(terr, ErrTruncatedCapture) {
			t.Fatalf("cut %d: %v does not wrap ErrTruncatedCapture", cut, terr)
		}
		checkFrames(t, cr, wantFrames)
	}
	// And the uncut file is clean — the loop's asymmetry is real.
	cr, err := NewCaptureReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Truncated(); err != nil {
		t.Fatalf("uncut capture reports truncation: %v", err)
	}
	checkFrames(t, cr, n)
}

// TestCaptureEndMarkerDamage leaves every frame intact and damages
// only what follows them: each byte of the end marker flipped in turn,
// and bytes appended after an intact marker. The reader must serve all
// frames and still flag the file.
func TestCaptureEndMarkerDamage(t *testing.T) {
	const n = 10
	data := writeTestCapture(t, testHello, n)
	var damaged [][]byte
	for off := len(data) - len(captureEnd); off < len(data); off++ {
		corrupt := append([]byte{}, data...)
		corrupt[off] ^= 0xff
		damaged = append(damaged, corrupt)
	}
	damaged = append(damaged,
		append(append([]byte{}, data...), 0),
		append(append([]byte{}, data...), data[captureHeaderSize:]...))
	for i, file := range damaged {
		cr, err := NewCaptureReader(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("case %d: open failed: %v", i, err)
		}
		if terr := cr.Truncated(); !errors.Is(terr, ErrTruncatedCapture) {
			t.Fatalf("case %d: damaged capture end reports clean, Truncated = %v", i, terr)
		}
		checkFrames(t, cr, n)
	}
}

// TestCaptureDamagedFrameServesPrefix damages one frame in the middle
// of a finished capture: the reader serves the frames before it,
// through Next and through ReadMatrixFrom as radard and radarfleet
// load captures, and reports the rest as truncation.
func TestCaptureDamagedFrameServesPrefix(t *testing.T) {
	const n, bad = 8, 4
	data := writeTestCapture(t, testHello, n)
	frameSize := frameWireSize(int(testHello.NumBins))
	corrupt := append([]byte{}, data...)
	corrupt[captureHeaderSize+bad*frameSize+headerSize+2] ^= 0xff
	cr, err := NewCaptureReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	terr := cr.Truncated()
	if !errors.Is(terr, ErrTruncatedCapture) || !strings.Contains(terr.Error(), fmt.Sprintf("frame %d ", bad)) {
		t.Fatalf("Truncated = %v, want ErrTruncatedCapture at frame %d", terr, bad)
	}
	checkFrames(t, cr, bad)
	m, err := cr.ReadMatrixFrom(0)
	if err != nil {
		t.Fatalf("ReadMatrixFrom over the intact prefix: %v", err)
	}
	if m.NumFrames() != bad {
		t.Fatalf("matrix holds %d frames, want the %d before the damage", m.NumFrames(), bad)
	}
	if _, err := cr.ReadMatrixFrom(bad); err == nil {
		t.Fatal("ReadMatrixFrom at the damaged frame succeeded")
	}
}

// TestCaptureCrashBeforeClose simulates the torn-write case the format
// exists for: frames checkpointed to disk, process dies before Close
// ever writes the end marker. Every checkpointed frame must be served.
func TestCaptureCrashBeforeClose(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf, testHello, 0)
	if err != nil {
		t.Fatal(err)
	}
	cw.every = 2
	const n = 7
	for k := 0; k < n; k++ {
		if err := cw.WriteFrame(testFrame(k, int(testHello.NumBins))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// No Close: buf holds header + frames, no end marker.
	cr, err := NewCaptureReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if terr := cr.Truncated(); !errors.Is(terr, ErrTruncatedCapture) {
		t.Fatalf("unclosed capture Truncated = %v", terr)
	}
	checkFrames(t, cr, n)
}

func TestCaptureWriterContracts(t *testing.T) {
	var buf bytes.Buffer
	cw, err := NewCaptureWriter(&buf, testHello, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteFrame(testFrame(0, 5)); err == nil {
		t.Fatal("frame with wrong geometry accepted")
	}
	if err := cw.WriteFrame(testFrame(0, int(testHello.NumBins))); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cw.WriteFrame(testFrame(1, int(testHello.NumBins))); err == nil {
		t.Fatal("WriteFrame after Close accepted")
	}
	if err := cw.Close(); err == nil {
		t.Fatal("double Close accepted")
	}
	if _, err := NewCaptureWriter(&buf, StreamHello{}, 0); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

// TestCaptureReadMatrix checks the matrix convenience against a capture
// of known frames.
func TestCaptureReadMatrix(t *testing.T) {
	m, err := rf.NewFrameMatrix(20, 8, 25, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.Data {
		for i := range m.Data[k] {
			m.Data[k][i] = complex(float64(k), float64(i))
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
	if got.NumFrames() != m.NumFrames() || got.NumBins() != m.NumBins() {
		t.Fatalf("matrix is %dx%d, want %dx%d", got.NumFrames(), got.NumBins(), m.NumFrames(), m.NumBins())
	}
	if got.FrameRate != m.FrameRate || got.BinSpacing != m.BinSpacing {
		t.Fatalf("geometry %v/%v", got.FrameRate, got.BinSpacing)
	}
	for k := range m.Data {
		for i := range m.Data[k] {
			if got.Data[k][i] != m.Data[k][i] {
				t.Fatalf("[%d][%d] = %v, want %v", k, i, got.Data[k][i], m.Data[k][i])
			}
		}
	}
}

// TestWriteCaptureTimestampRounding is the regression test for the
// floor-vs-round bug: at a non-integer frame period (30 fps → 33333.3µs)
// flooring drifts odd frames 1µs early against the FrameTime grid. The
// frames go through CaptureWriter stamped as radarsim stamps them.
func TestWriteCaptureTimestampRounding(t *testing.T) {
	if got := TimestampMicros(2.0 / 30.0); got != 66667 {
		t.Fatalf("TimestampMicros(2/30) = %d, want 66667 (floor would give 66666)", got)
	}
	if got := TimestampMicros(0.04); got != 40000 {
		t.Fatalf("TimestampMicros(0.04) = %d, want 40000", got)
	}
	m, err := rf.NewFrameMatrix(10, 4, 30, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := NewCaptureReader(bytes.NewReader(writeMatrixCapture(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < cr.NumFrames(); k++ {
		f, err := cr.Next()
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(math.Round(m.FrameTime(k) * 1e6))
		if f.TimestampMicros != want {
			t.Fatalf("frame %d timestamp %dµs, want %dµs (drift %d)", k, f.TimestampMicros, want, int64(f.TimestampMicros)-int64(want))
		}
	}
}
