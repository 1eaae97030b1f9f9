package rf

import (
	"fmt"
	"math/cmplx"

	"blinkradar/internal/dsp"
)

// RangeDopplerMap is the classic two-dimensional radar product the
// paper invokes in Section IV-A: a slow-time FFT per range bin turns
// the frame matrix into power over (range, radial velocity). BlinkRadar
// itself works in the I/Q domain instead — blinks are too sparse and
// aperiodic for Doppler analysis — but the map remains useful for scene
// inspection and for separating moving interferers.
type RangeDopplerMap struct {
	// Power is indexed [doppler bin][range bin].
	Power [][]float64
	// Velocities holds the range rate of each Doppler bin in m/s
	// (negative = approaching), in the same order as Power's rows.
	Velocities []float64
	// BinSpacing is the range-bin spacing in metres.
	BinSpacing float64
}

// ComputeRangeDoppler builds the map from up to `frames` consecutive
// frames of m starting at `start`. The slow-time window is Hann-
// weighted; frames is rounded down to the available count and must
// cover at least 8 frames.
func ComputeRangeDoppler(m *FrameMatrix, start, frames int, carrierHz float64) (*RangeDopplerMap, error) {
	if carrierHz <= 0 {
		return nil, fmt.Errorf("rf: carrier must be positive, got %g", carrierHz)
	}
	if start < 0 || start >= m.NumFrames() {
		return nil, fmt.Errorf("rf: start frame %d out of range", start)
	}
	if start+frames > m.NumFrames() {
		frames = m.NumFrames() - start
	}
	if frames < 8 {
		return nil, fmt.Errorf("rf: need at least 8 frames, got %d", frames)
	}
	n := dsp.NextPow2(frames)
	bins := m.NumBins()
	window := dsp.Hann(frames)

	power := make([][]float64, n)
	for d := range power {
		power[d] = make([]float64, bins)
	}
	buf := make([]complex128, n)
	for b := 0; b < bins; b++ {
		for i := range buf {
			buf[i] = 0
		}
		for k := 0; k < frames; k++ {
			buf[k] = m.Data[start+k][b] * complex(window[k], 0)
		}
		spec := dsp.FFT(buf)
		for d, c := range spec {
			a := cmplx.Abs(c)
			power[d][b] = a * a
		}
	}
	// Doppler frequency f maps to range rate v = -f * c / (2 fc): an
	// approaching target (shrinking delay) advances the phase, giving
	// positive Doppler, so its range rate is negative. The two-way
	// path modulates the phase at twice the motion rate.
	freqs := dsp.FFTFreq(n, m.FrameRate)
	vel := make([]float64, n)
	for i, f := range freqs {
		vel[i] = -f * SpeedOfLight / (2 * carrierHz)
	}
	return &RangeDopplerMap{
		Power:      power,
		Velocities: vel,
		BinSpacing: m.BinSpacing,
	}, nil
}
