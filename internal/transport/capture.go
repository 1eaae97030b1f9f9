package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// This file implements the .brc capture format (version 2, the only
// version): the on-disk substrate of record/replay evaluation. Layout:
//
//	file header (44 bytes):
//	  0  [8]byte  magic "BRC1" 0xB1 0x1C '\r' '\n'
//	  8  uint16   capture format version (2)
//	  10 uint16   reserved (0)
//	  12 uint32   bin count
//	  16 float64  frame rate (frames/s)
//	  24 float64  bin spacing (m)
//	  32 uint64   start time (unix microseconds; 0 = unknown/synthetic)
//	  40 uint32   CRC32 (IEEE) over bytes 0..40
//	frames: each in the wire codec format (per-frame header + CRC,
//	  see codec.go), geometry pinned to the file header's bin count
//	end marker (written at Close):
//	  [8]byte  "BRCE" 0xB1 0x1C '\r' '\n'
//
// The frames are the capture's only index: CaptureReader validates
// them front to back by their CRCs at open and records where each one
// starts, so a finished capture and a torn one are read the same way,
// and Seek is O(1) afterwards. Frames are appended as they arrive and
// Close adds only the end marker, which tells a finished capture from
// one cut exactly at a frame boundary. A capture cut short — crash,
// power loss, torn copy — or damaged anywhere serves the frames before
// the damage and reports the rest as ErrTruncatedCapture.

// ErrTruncatedCapture marks a capture that does not end cleanly — a
// torn write, a crash before Close, a partial copy, a damaged frame. It
// is a recoverable condition: CaptureReader still serves the intact
// frame prefix; the error reports where that prefix stops.
var ErrTruncatedCapture = errors.New("transport: truncated capture")

// CaptureVersion is the capture file format version, the only one a
// CaptureReader opens.
const CaptureVersion = 2

var (
	captureMagic = [8]byte{'B', 'R', 'C', '1', 0xB1, 0x1C, '\r', '\n'}
	captureEnd   = [8]byte{'B', 'R', 'C', 'E', 0xB1, 0x1C, '\r', '\n'}
)

const captureHeaderSize = 44

// CaptureHeader describes a capture file: the stream geometry and the
// recording start time.
type CaptureHeader struct {
	// Hello is the stream geometry (frame rate, bin spacing, bins).
	Hello StreamHello
	// StartTimeMicros is the recording start in unix microseconds;
	// zero means unknown (synthetic captures).
	StartTimeMicros uint64
}

// syncer is the subset of *os.File Checkpoint needs to make buffered
// frames durable.
type syncer interface{ Sync() error }

// TimestampMicros converts a time in seconds to microseconds, rounding
// half-up. Truncation here is not harmless: at a non-integer frame
// rate, flooring drifts frame timestamps by up to 1µs against the
// FrameTime grid, so a write→read round-trip no longer reproduces the
// recorded clock.
func TimestampMicros(sec float64) uint64 {
	return uint64(math.Round(sec * 1e6))
}

// CaptureWriter streams frames into a .brc v2 capture. Frames are
// buffered and CRC-framed as written; Close appends the end marker.
// Periodic checkpoints (every 256 frames, or explicit Checkpoint calls)
// flush — and, when the destination supports it, fsync — so a crash
// mid-capture loses at most the frames since the last checkpoint:
// everything before it is served by CaptureReader even though the end
// marker was never written.
type CaptureWriter struct {
	bw     *bufio.Writer
	sync   syncer
	enc    *Encoder
	hello  StreamHello
	every  int // automatic checkpoint period in frames
	since  int
	closed bool
}

// NewCaptureWriter writes the v2 file header for the given geometry
// and returns a writer appending frames to w. startMicros stamps the
// recording start (unix microseconds; 0 for synthetic captures). The
// caller owns w; Close finishes the capture but does not close it.
func NewCaptureWriter(w io.Writer, hello StreamHello, startMicros uint64) (*CaptureWriter, error) {
	if !plausibleHello(hello) {
		return nil, fmt.Errorf("transport: invalid capture geometry %+v", hello)
	}
	bw := bufio.NewWriter(w)
	var hdr [captureHeaderSize]byte
	copy(hdr[0:], captureMagic[:])
	binary.BigEndian.PutUint16(hdr[8:], CaptureVersion)
	binary.BigEndian.PutUint32(hdr[12:], hello.NumBins)
	binary.BigEndian.PutUint64(hdr[16:], math.Float64bits(hello.FrameRate))
	binary.BigEndian.PutUint64(hdr[24:], math.Float64bits(hello.BinSpacing))
	binary.BigEndian.PutUint64(hdr[32:], startMicros)
	binary.BigEndian.PutUint32(hdr[40:], crc32.ChecksumIEEE(hdr[:40]))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("transport: write capture header: %w", err)
	}
	cw := &CaptureWriter{
		bw:    bw,
		enc:   NewEncoder(bw),
		hello: hello,
		every: 256,
	}
	if s, ok := w.(syncer); ok {
		cw.sync = s
	}
	return cw, nil
}

// WriteFrame appends one frame. The geometry is pinned: a frame whose
// bin count differs from the header's is refused.
func (cw *CaptureWriter) WriteFrame(f Frame) error {
	if cw.closed {
		return errors.New("transport: WriteFrame on a closed capture")
	}
	if len(f.Bins) != int(cw.hello.NumBins) {
		return fmt.Errorf("transport: frame has %d bins, capture pins %d", len(f.Bins), cw.hello.NumBins)
	}
	if err := cw.enc.Encode(f); err != nil {
		return err
	}
	cw.since++
	if cw.since >= cw.every {
		return cw.Checkpoint()
	}
	return nil
}

// Checkpoint flushes buffered frames to the destination and, when it
// supports Sync (an *os.File does), forces them to stable storage.
// After a checkpoint every frame written so far survives a crash: the
// torn capture loses its end marker, not its frames.
func (cw *CaptureWriter) Checkpoint() error {
	cw.since = 0
	if err := cw.enc.Flush(); err != nil {
		return err
	}
	if err := cw.bw.Flush(); err != nil {
		return fmt.Errorf("transport: checkpoint flush: %w", err)
	}
	if cw.sync != nil {
		if err := cw.sync.Sync(); err != nil {
			return fmt.Errorf("transport: checkpoint sync: %w", err)
		}
	}
	return nil
}

// Close writes the end marker and flushes the capture. The writer is
// unusable afterwards; the underlying file remains open (the caller
// owns it). Close is not idempotent: a second call reports an error.
func (cw *CaptureWriter) Close() error {
	if cw.closed {
		return errors.New("transport: capture already closed")
	}
	cw.closed = true
	if err := cw.enc.Flush(); err != nil {
		return err
	}
	if _, err := cw.bw.Write(captureEnd[:]); err != nil {
		return fmt.Errorf("transport: write capture end marker: %w", err)
	}
	if err := cw.bw.Flush(); err != nil {
		return fmt.Errorf("transport: flush capture: %w", err)
	}
	if cw.sync != nil {
		if err := cw.sync.Sync(); err != nil {
			return fmt.Errorf("transport: sync capture: %w", err)
		}
	}
	return nil
}

// CaptureReader reads .brc v2 captures with torn-write recovery: a
// file that is cut anywhere, or damaged in any frame, still yields
// every frame before the damage; Truncated reports the damage as an
// error wrapping ErrTruncatedCapture. Every frame is CRC-validated at
// open, and again on every read.
//
// The reader is single-goroutine; Next returns a frame whose I/Q
// planes are reused by the following Next or Seek.
type CaptureReader struct {
	r      io.ReadSeeker
	br     *bufio.Reader
	header CaptureHeader

	offsets []int64
	trunc   error // nil exactly when the end marker ends the file

	pos     int // frame index the next Next will read
	aligned bool

	scratchHeader []byte
	scratchBody   []byte
	planeI        []float32
	planeQ        []float32
}

// NewCaptureReader opens a capture. The constructor validates the
// header, then scans the frames to index the intact prefix. A file cut
// before the header is complete cannot be opened and returns an error
// wrapping ErrTruncatedCapture; anything longer opens with the frames
// that survived. A file that does not open with the v2 header — a v1
// capture, or a bare wire dump that starts with a stream hello — is
// refused.
func NewCaptureReader(r io.ReadSeeker) (*CaptureReader, error) {
	cr := &CaptureReader{
		r:             r,
		br:            bufio.NewReader(r),
		scratchHeader: make([]byte, headerSize),
	}
	if err := cr.readHeader(); err != nil {
		return nil, err
	}
	cr.planeI = make([]float32, cr.header.Hello.NumBins)
	cr.planeQ = make([]float32, cr.header.Hello.NumBins)
	cr.trunc = cr.scanIndex()
	return cr, nil
}

// Header returns the capture's geometry and start time.
func (cr *CaptureReader) Header() CaptureHeader { return cr.header }

// NumFrames reports the readable (intact) frame count.
func (cr *CaptureReader) NumFrames() int { return len(cr.offsets) }

// Truncated reports whether the capture ends cleanly. A nil return
// means the end marker directly follows the last frame and ends the
// file; otherwise the error wraps ErrTruncatedCapture and describes
// where the intact frames stop. Those frames remain fully readable
// either way.
func (cr *CaptureReader) Truncated() error { return cr.trunc }

// readHeader decodes and validates the v2 file header, leaving br at
// the first frame.
func (cr *CaptureReader) readHeader() error {
	if _, err := cr.r.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("transport: seek capture start: %w", err)
	}
	cr.br.Reset(cr.r)
	var hdr [captureHeaderSize]byte
	if _, err := io.ReadFull(cr.br, hdr[:]); err != nil {
		return fmt.Errorf("transport: capture header cut short: %w", ErrTruncatedCapture)
	}
	if [8]byte(hdr[0:8]) != captureMagic {
		return fmt.Errorf("transport: not a capture file (magic %x)", hdr[0:8])
	}
	if v := binary.BigEndian.Uint16(hdr[8:]); v != CaptureVersion {
		return fmt.Errorf("transport: capture version %d is not supported, want version %d", v, CaptureVersion)
	}
	if got, want := binary.BigEndian.Uint32(hdr[40:]), crc32.ChecksumIEEE(hdr[:40]); got != want {
		return fmt.Errorf("transport: capture header CRC mismatch %#x != %#x", got, want)
	}
	h := StreamHello{
		NumBins:    binary.BigEndian.Uint32(hdr[12:]),
		FrameRate:  math.Float64frombits(binary.BigEndian.Uint64(hdr[16:])),
		BinSpacing: math.Float64frombits(binary.BigEndian.Uint64(hdr[24:])),
	}
	if !plausibleHello(h) {
		return fmt.Errorf("transport: implausible capture geometry %+v", h)
	}
	cr.header = CaptureHeader{
		Hello:           h,
		StartTimeMicros: binary.BigEndian.Uint64(hdr[32:]),
	}
	return nil
}

// scanIndex builds the frame index by validating the CRC-framed stream
// front to back (samples are never decoded), from the header on. It
// stops at the end marker or at the first damage — a cut frame, a
// corrupt CRC, a damaged marker — and everything before the stop is
// intact and becomes the readable prefix. It returns nil only when the
// marker ends the file; otherwise it says where the scan stopped,
// wrapping ErrTruncatedCapture.
func (cr *CaptureReader) scanIndex() error {
	off := int64(captureHeaderSize)
	for {
		if peek, err := cr.br.Peek(len(captureEnd) + 1); len(peek) >= len(captureEnd) && [8]byte(peek) == captureEnd {
			if len(peek) == len(captureEnd) && err == io.EOF {
				return nil
			}
			return fmt.Errorf("transport: capture end marker after %d frames does not end the file: %w",
				len(cr.offsets), ErrTruncatedCapture)
		}
		_, n, err := readFrameWire(cr.br, cr.scratchHeader, &cr.scratchBody, cr.header.Hello.NumBins)
		if errors.Is(err, io.EOF) {
			// Frames ended without the marker: the Close never landed.
			return fmt.Errorf("transport: capture end marker missing after %d frames: %w",
				len(cr.offsets), ErrTruncatedCapture)
		}
		if err != nil {
			return fmt.Errorf("transport: capture damaged at frame %d (offset %d): %v: %w",
				len(cr.offsets), off, err, ErrTruncatedCapture)
		}
		cr.offsets = append(cr.offsets, off)
		off += int64(frameWireSize(n))
	}
}

// Seek positions the reader so the next Next returns frame k. Seeking
// to NumFrames is allowed and parks the reader at end of capture.
func (cr *CaptureReader) Seek(k int) error {
	if k < 0 || k > len(cr.offsets) {
		return fmt.Errorf("transport: seek to frame %d of %d", k, len(cr.offsets))
	}
	cr.pos = k
	cr.aligned = false
	return nil
}

// Next returns the next frame in sequence, or io.EOF past the last
// intact frame. The returned I/Q planes are owned by the reader and
// overwritten by the following Next; callers that keep frames copy
// them. Every frame is CRC-validated as it is read.
//
//blinkradar:hotpath
func (cr *CaptureReader) Next() (PlaneFrame, error) {
	if cr.pos >= len(cr.offsets) {
		return PlaneFrame{}, io.EOF
	}
	if !cr.aligned {
		if err := cr.align(); err != nil {
			return PlaneFrame{}, err
		}
	}
	f, err := readFramePlanes(cr.br, cr.scratchHeader, &cr.scratchBody, cr.planeI, cr.planeQ, cr.header.Hello.NumBins)
	if err != nil {
		// The scan validated this frame at open, so the bytes under the
		// reader changed or could not be read.
		cr.aligned = false
		return PlaneFrame{}, errIndexedFrame(cr.pos, err)
	}
	cr.pos++
	return f, nil
}

// align seeks the underlying reader to the current frame offset.
//
//blinkradar:coldpath
func (cr *CaptureReader) align() error {
	if _, err := cr.r.Seek(cr.offsets[cr.pos], io.SeekStart); err != nil {
		return fmt.Errorf("transport: seek frame %d: %w", cr.pos, err)
	}
	cr.br.Reset(cr.r)
	cr.aligned = true
	return nil
}

//blinkradar:coldpath
func errIndexedFrame(k int, err error) error {
	return fmt.Errorf("transport: indexed frame %d no longer decodes: %v: %w", k, err, ErrTruncatedCapture)
}

// ReadMatrixFrom decodes the intact frames from index start on into a
// frame matrix (seek via the index, then sequential decode to the end
// of the intact frames). It seeks first, so it can be called at any
// point; a start outside the intact frames — including any start on a
// capture holding none — is an error. Each frame's planes are widened
// straight into its matrix row. Timestamps are not carried over — the
// matrix derives slow time from its frame rate, which is exact for
// radarsim captures and a documented approximation for chaos-damaged
// ones (dropped frames compress the timeline).
func (cr *CaptureReader) ReadMatrixFrom(start int) (*rf.FrameMatrix, error) {
	if start < 0 || start >= len(cr.offsets) {
		return nil, fmt.Errorf("transport: start frame %d outside the %d intact frames", start, len(cr.offsets))
	}
	if err := cr.Seek(start); err != nil {
		return nil, err
	}
	h := cr.header.Hello
	m, err := rf.NewFrameMatrix(len(cr.offsets)-start, int(h.NumBins), h.FrameRate, h.BinSpacing)
	if err != nil {
		return nil, err
	}
	for k := range m.Data {
		f, err := cr.Next()
		if err != nil {
			return nil, err
		}
		iq.Planes32{I: f.I, Q: f.Q}.ToComplex(m.Data[k])
	}
	return m, nil
}
