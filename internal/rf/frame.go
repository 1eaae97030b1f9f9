package rf

import "fmt"

// FrameMatrix is the fundamental radar data product: a complex baseband
// range profile per frame. Data[k][b] is the I/Q sample of range bin b
// in frame k (slow-time index). This is exactly what the commercial
// impulse radio delivers over SPI in the real system.
type FrameMatrix struct {
	// Data is indexed [frame][bin].
	Data [][]complex128
	// FrameRate is the slow-time sampling rate in frames per second.
	FrameRate float64
	// BinSpacing is the range extent of one fast-time bin in metres.
	BinSpacing float64
}

// NewFrameMatrix allocates a zeroed frame matrix with the given
// dimensions. A single backing allocation keeps the rows contiguous.
func NewFrameMatrix(frames, bins int, frameRate, binSpacing float64) (*FrameMatrix, error) {
	if frames <= 0 || bins <= 0 {
		return nil, fmt.Errorf("rf: frame matrix dimensions must be positive, got %dx%d", frames, bins)
	}
	if frameRate <= 0 || binSpacing <= 0 {
		return nil, fmt.Errorf("rf: frame rate and bin spacing must be positive, got %g, %g", frameRate, binSpacing)
	}
	backing := make([]complex128, frames*bins)
	data := make([][]complex128, frames)
	for i := range data {
		data[i], backing = backing[:bins:bins], backing[bins:]
	}
	return &FrameMatrix{Data: data, FrameRate: frameRate, BinSpacing: binSpacing}, nil
}

// NumFrames returns the number of slow-time frames.
func (m *FrameMatrix) NumFrames() int { return len(m.Data) }

// NumBins returns the number of fast-time range bins.
func (m *FrameMatrix) NumBins() int {
	if len(m.Data) == 0 {
		return 0
	}
	return len(m.Data[0])
}

// FrameTime returns the capture time in seconds of frame k.
func (m *FrameMatrix) FrameTime(k int) float64 {
	return float64(k) / m.FrameRate
}

// DistanceBin returns the bin index containing range r, clamped to the
// valid bin range.
func (m *FrameMatrix) DistanceBin(r float64) int {
	b := int(r / m.BinSpacing)
	if b < 0 {
		b = 0
	}
	if n := m.NumBins(); b >= n {
		b = n - 1
	}
	return b
}

// Duration returns the capture length in seconds.
func (m *FrameMatrix) Duration() float64 {
	return float64(m.NumFrames()) / m.FrameRate
}

// SlowTime extracts the slow-time complex series of a single range bin:
// Data[0][bin], Data[1][bin], ... as a new slice.
func (m *FrameMatrix) SlowTime(bin int) []complex128 {
	out := make([]complex128, m.NumFrames())
	for k, frame := range m.Data {
		out[k] = frame[bin]
	}
	return out
}

// MeanPowerPerBin returns the time-averaged power of each range bin,
// i.e. the static range profile of Fig. 6(b).
func (m *FrameMatrix) MeanPowerPerBin() []float64 {
	bins := m.NumBins()
	out := make([]float64, bins)
	if m.NumFrames() == 0 {
		return out
	}
	for _, frame := range m.Data {
		for b, c := range frame {
			re, im := real(c), imag(c)
			out[b] += re*re + im*im
		}
	}
	inv := 1 / float64(m.NumFrames())
	for b := range out {
		out[b] *= inv
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *FrameMatrix) Clone() *FrameMatrix {
	cp, err := NewFrameMatrix(m.NumFrames(), m.NumBins(), m.FrameRate, m.BinSpacing)
	if err != nil {
		// The receiver was valid, so its dimensions are valid too.
		panic(fmt.Sprintf("rf: cloning valid matrix failed: %v", err))
	}
	for k, frame := range m.Data {
		copy(cp.Data[k], frame)
	}
	return cp
}
