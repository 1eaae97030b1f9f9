// Package transport implements the acquisition link of the real system:
// the impulse radio streams complex range profiles (over SPI to a
// Raspberry Pi, then to the processing laptop). Here frames are framed
// with a compact binary codec and shipped over TCP, so a radar daemon
// (cmd/radard) can feed any number of live detectors (cmd/radarwatch).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// ErrCorruptFrame marks a framing-level decode failure — bad magic,
// unsupported version, implausible bin count, or CRC mismatch — as
// opposed to an I/O error. A decoder in resync mode recovers from these
// by scanning forward to the next frame boundary; everything else
// (connection loss, clean EOF) still terminates the stream.
var ErrCorruptFrame = errors.New("transport: corrupt frame")

// Protocol constants.
const (
	// Magic marks the start of every frame packet.
	Magic = 0xB11C
	// Version is the wire protocol version.
	Version = 1
	// MaxBins bounds the per-frame bin count a decoder will accept,
	// protecting against corrupt or hostile length fields.
	MaxBins = 1 << 16
)

// Frame is one radar frame on the wire.
type Frame struct {
	// Seq is the monotonically increasing frame sequence number.
	Seq uint64
	// TimestampMicros is the capture time in microseconds since the
	// stream epoch.
	TimestampMicros uint64
	// Bins is the complex baseband range profile. Values are carried
	// as float32 pairs: the radio's dynamic range does not exceed
	// single precision, and it halves the wire size.
	Bins []complex128
}

// Header layout:
//
//	0  uint16  magic
//	2  uint8   version
//	3  uint8   reserved
//	4  uint64  seq
//	12 uint64  timestamp (us)
//	20 uint32  bin count
//	24 payload: bin count * 2 * float32
//	.. uint32  CRC32 (IEEE) over header+payload
const headerSize = 24

// StreamHello is sent once by the server when a client connects.
type StreamHello struct {
	// FrameRate is the slow-time rate in frames per second.
	FrameRate float64
	// BinSpacing is the range-bin spacing in metres.
	BinSpacing float64
	// NumBins is the per-frame bin count.
	NumBins uint32
}

// helloSize is the wire size of StreamHello: magic(2) version(1)
// reserved(1) frameRate(8) binSpacing(8) numBins(4) crc(4).
const helloSize = 28

// EncodeHello writes the stream hello to w.
func EncodeHello(w io.Writer, h StreamHello) error {
	if !plausibleHello(h) {
		return fmt.Errorf("transport: invalid hello %+v", h)
	}
	buf := make([]byte, helloSize)
	binary.BigEndian.PutUint16(buf[0:], Magic)
	buf[2] = Version
	binary.BigEndian.PutUint64(buf[4:], math.Float64bits(h.FrameRate))
	binary.BigEndian.PutUint64(buf[12:], math.Float64bits(h.BinSpacing))
	binary.BigEndian.PutUint32(buf[20:], h.NumBins)
	binary.BigEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[:24]))
	_, err := w.Write(buf)
	if err != nil {
		return fmt.Errorf("transport: write hello: %w", err)
	}
	return nil
}

// DecodeHello reads the stream hello from r.
func DecodeHello(r io.Reader) (StreamHello, error) {
	buf := make([]byte, helloSize)
	if _, err := io.ReadFull(r, buf); err != nil {
		return StreamHello{}, fmt.Errorf("transport: read hello: %w", err)
	}
	if m := binary.BigEndian.Uint16(buf[0:]); m != Magic {
		return StreamHello{}, fmt.Errorf("transport: bad hello magic %#x", m)
	}
	if v := buf[2]; v != Version {
		return StreamHello{}, fmt.Errorf("transport: unsupported version %d", v)
	}
	if got, want := binary.BigEndian.Uint32(buf[24:]), crc32.ChecksumIEEE(buf[:24]); got != want {
		return StreamHello{}, fmt.Errorf("transport: hello CRC mismatch %#x != %#x", got, want)
	}
	h := StreamHello{
		FrameRate:  math.Float64frombits(binary.BigEndian.Uint64(buf[4:])),
		BinSpacing: math.Float64frombits(binary.BigEndian.Uint64(buf[12:])),
		NumBins:    binary.BigEndian.Uint32(buf[20:]),
	}
	if !plausibleHello(h) {
		return StreamHello{}, fmt.Errorf("transport: implausible hello %+v", h)
	}
	return h, nil
}

// plausibleHello validates the geometry announcement: rates must be
// finite and positive (NaN fails the comparison, infinities are checked
// explicitly) and the bin count in range. Shared by encode and decode so
// nothing one side accepts can poison the other.
func plausibleHello(h StreamHello) bool {
	return h.FrameRate > 0 && !math.IsInf(h.FrameRate, 1) &&
		h.BinSpacing > 0 && !math.IsInf(h.BinSpacing, 1) &&
		h.NumBins >= 1 && h.NumBins <= MaxBins
}

// Encoder writes frames to an underlying stream. It buffers internally;
// call Flush (or use the Server, which does) to push packets out.
type Encoder struct {
	w   *bufio.Writer
	buf []byte
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: bufio.NewWriter(w)}
}

// Encode writes one frame.
func (e *Encoder) Encode(f Frame) error {
	n := len(f.Bins)
	if n == 0 || n > MaxBins {
		return fmt.Errorf("transport: frame has %d bins, want 1..%d", n, MaxBins)
	}
	total := headerSize + n*8 + 4
	if cap(e.buf) < total {
		e.buf = make([]byte, total)
	}
	buf := e.buf[:total]
	binary.BigEndian.PutUint16(buf[0:], Magic)
	buf[2] = Version
	buf[3] = 0
	binary.BigEndian.PutUint64(buf[4:], f.Seq)
	binary.BigEndian.PutUint64(buf[12:], f.TimestampMicros)
	binary.BigEndian.PutUint32(buf[20:], uint32(n))
	off := headerSize
	for _, c := range f.Bins {
		binary.BigEndian.PutUint32(buf[off:], math.Float32bits(float32(real(c))))
		binary.BigEndian.PutUint32(buf[off+4:], math.Float32bits(float32(imag(c))))
		off += 8
	}
	binary.BigEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	if _, err := e.w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// Flush pushes buffered packets to the underlying writer.
func (e *Encoder) Flush() error {
	if err := e.w.Flush(); err != nil {
		return fmt.Errorf("transport: flush: %w", err)
	}
	return nil
}

// Decoder reads frames from an underlying stream. By default any
// corruption terminates the stream with ErrCorruptFrame; EnableResync
// switches to in-stream recovery, where a corrupt frame is discarded
// and decoding realigns on the next plausible frame header.
type Decoder struct {
	r      *bufio.Reader
	buf    []byte
	header []byte

	resync      bool
	expectBins  uint32
	resyncs     uint64
	skippedByte uint64

	// DecodePlanes scratch, grown once to the stream geometry.
	planeI []float32
	planeQ []float32
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r), header: make([]byte, headerSize)}
}

// EnableResync makes DecodePlanes recover from corrupt frames by scanning
// forward to the next frame boundary instead of failing the stream.
// Intended for live links, where tearing the connection down over one
// damaged packet costs a reconnect and every frame in between.
func (d *Decoder) EnableResync() { d.resync = true }

// SetExpectedBins pins the per-frame bin count (0 lifts the pin). A
// header announcing any other count is treated as corrupt, which stops
// a damaged length field from stalling the stream on a giant phantom
// payload and sharpens resync's header validation. Every stream reader
// pins the count its hello announced (Dial, ingest.ServeStream); an
// unpinned decoder accepts any width up to MaxBins.
func (d *Decoder) SetExpectedBins(n uint32) { d.expectBins = n }

// Resyncs reports how many corrupt frames were skipped and how many
// inter-frame garbage bytes were discarded while realigning.
func (d *Decoder) Resyncs() (frames, bytesSkipped uint64) {
	return d.resyncs, d.skippedByte
}

// seekMagic discards bytes until the reader is positioned at a
// plausible frame header (magic, supported version, sane bin count).
// The header is only peeked, never consumed, so a false positive costs
// one failed decode and another scan rather than lost alignment.
func (d *Decoder) seekMagic() error {
	for {
		p, err := d.r.Peek(2)
		if err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("transport: resync scan: %w", err)
		}
		if binary.BigEndian.Uint16(p) == Magic {
			hdr, herr := d.r.Peek(headerSize)
			if herr != nil {
				// Short stream: let the decode attempt surface the
				// truncation as its own error.
				return nil
			}
			if hdr[2] == Version {
				n := binary.BigEndian.Uint32(hdr[20:])
				if n >= 1 && n <= MaxBins && (d.expectBins == 0 || n == d.expectBins) {
					return nil
				}
			}
		}
		if _, err := d.r.Discard(1); err != nil {
			return fmt.Errorf("transport: resync scan: %w", err)
		}
		d.skippedByte++
	}
}

// PlaneFrame is one radar frame decoded into struct-of-arrays float32
// I/Q planes — the exact representation the wire carries and the
// detection pipeline consumes, so every read path hands out the wire's
// samples bit for bit, with no complex128 widening round trip.
type PlaneFrame struct {
	// Seq is the monotonically increasing frame sequence number.
	Seq uint64
	// TimestampMicros is the capture time in microseconds since the
	// stream epoch.
	TimestampMicros uint64
	// I and Q are the in-phase and quadrature planes, one value per
	// range bin.
	I []float32
	Q []float32
}

// DecodePlanes reads one frame into decoder-owned I/Q planes, valid
// until the next DecodePlanes call. It returns io.EOF (possibly
// wrapped) when the stream ends cleanly at a packet boundary. With
// resync enabled, corrupt frames are skipped transparently (see
// Resyncs for the accounting); otherwise they surface as errors
// matching ErrCorruptFrame.
func (d *Decoder) DecodePlanes() (PlaneFrame, error) {
	f, err := d.decodePlanesOnce()
	for err != nil && d.resync && errors.Is(err, ErrCorruptFrame) {
		d.resyncs++
		if serr := d.seekMagic(); serr != nil {
			return PlaneFrame{}, serr
		}
		f, err = d.decodePlanesOnce()
	}
	return f, err
}

// decodePlanesOnce reads one plane frame at the current stream
// position.
//
//blinkradar:hotpath
func (d *Decoder) decodePlanesOnce() (PlaneFrame, error) {
	f, err := readFramePlanes(d.r, d.header, &d.buf, d.planeI, d.planeQ, d.expectBins)
	if err == nil {
		d.planeI, d.planeQ = f.I, f.Q
	}
	return f, err
}

// frameWireSize is the encoded size of a frame with n bins.
func frameWireSize(n int) int { return headerSize + n*8 + 4 }

// readFramePlanes decodes one CRC-framed frame from r at its current
// position into struct-of-arrays float32 planes, the wire's own sample
// representation: each bin's I and Q values land bit-for-bit, with no
// float64 round trip. header must be headerSize bytes, *payload is
// grown as needed, and pi and pq are reused when their capacity
// suffices (pass nil to allocate). Failures are readFrameWire's.
//
//blinkradar:hotpath
func readFramePlanes(r io.Reader, header []byte, payload *[]byte, pi, pq []float32, expectBins uint32) (PlaneFrame, error) {
	body, n, err := readFrameWire(r, header, payload, expectBins)
	if err != nil {
		return PlaneFrame{}, err
	}
	if cap(pi) < n || cap(pq) < n {
		pi = make([]float32, n) //blinkvet:ignore hotpathalloc -- grow-once: callers pass geometry-sized planes (or nil to opt into allocation)
		pq = make([]float32, n) //blinkvet:ignore hotpathalloc -- grow-once: callers pass geometry-sized planes (or nil to opt into allocation)
	}
	f := PlaneFrame{
		Seq:             binary.BigEndian.Uint64(header[4:]),
		TimestampMicros: binary.BigEndian.Uint64(header[12:]),
		I:               pi[:n],
		Q:               pq[:n],
	}
	off := 0
	for i := 0; i < n; i++ {
		f.I[i] = math.Float32frombits(binary.BigEndian.Uint32(body[off:]))
		f.Q[i] = math.Float32frombits(binary.BigEndian.Uint32(body[off+4:]))
		off += 8
	}
	return f, nil
}

// readFrameWire reads and validates one frame's header, payload and
// CRC, returning the payload body (sample area plus trailing CRC) and
// the bin count. Failures are io.EOF at a clean boundary,
// ErrCorruptFrame wrapping for framing damage, and plain errors for
// I/O truncation mid-frame. readFramePlanes decodes the body; the
// capture index scan only needs the validation.
//
//blinkradar:hotpath
func readFrameWire(r io.Reader, header []byte, payload *[]byte, expectBins uint32) ([]byte, int, error) {
	if _, err := io.ReadFull(r, header); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, errReadHeader(err)
	}
	if m := binary.BigEndian.Uint16(header[0:]); m != Magic {
		return nil, 0, errBadMagic(m)
	}
	if v := header[2]; v != Version {
		return nil, 0, errBadVersion(v)
	}
	n := binary.BigEndian.Uint32(header[20:])
	if n == 0 || n > MaxBins || (expectBins != 0 && n != expectBins) {
		return nil, 0, errBadBinCount(n)
	}
	size := int(n)*8 + 4
	if cap(*payload) < size {
		*payload = make([]byte, size) //blinkvet:ignore hotpathalloc -- scratch growth is amortised: the payload buffer is reused across frames
	}
	body := (*payload)[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			// The header promised a payload: a stream ending here is
			// cut mid-frame, not at a clean boundary.
			err = io.ErrUnexpectedEOF
		}
		return nil, 0, errReadPayload(err)
	}
	crc := crc32.ChecksumIEEE(header)
	crc = crc32.Update(crc, crc32.IEEETable, body[:len(body)-4])
	if got := binary.BigEndian.Uint32(body[len(body)-4:]); got != crc {
		return nil, 0, errBadCRC(got, crc)
	}
	return body, int(n), nil
}

// Cold error constructors, hoisted off the decode hot path.

//blinkradar:coldpath
func errReadHeader(err error) error { return fmt.Errorf("transport: read header: %w", err) }

//blinkradar:coldpath
func errBadMagic(m uint16) error { return fmt.Errorf("%w: bad magic %#x", ErrCorruptFrame, m) }

//blinkradar:coldpath
func errBadVersion(v uint8) error {
	return fmt.Errorf("%w: unsupported version %d", ErrCorruptFrame, v)
}

//blinkradar:coldpath
func errBadBinCount(n uint32) error {
	return fmt.Errorf("%w: implausible bin count %d", ErrCorruptFrame, n)
}

//blinkradar:coldpath
func errReadPayload(err error) error { return fmt.Errorf("transport: read payload: %w", err) }

//blinkradar:coldpath
func errBadCRC(got, want uint32) error {
	return fmt.Errorf("%w: CRC mismatch %#x != %#x", ErrCorruptFrame, got, want)
}
