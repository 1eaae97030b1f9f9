// Package vitals estimates respiration and heart rate from the same
// radar stream BlinkRadar uses for blink detection. The paper exploits
// the "embedded interference" of breathing-coupled head sway and
// ballistocardiographic (BCG) motion only to locate the eye's range
// bin; this package extracts the interference itself, following the
// in-vehicle vital-sign systems the paper builds on (V2iFi, MoRe-Fi).
//
// The estimator unwraps the phase of the selected bin's I/Q trajectory
// around its Pratt-fitted centre — displacement maps linearly to phase
// (Eq. 9) — and reads the respiration and heartbeat fundamentals from
// the spectrum of that displacement waveform.
//
// Every session runs a Monitor, so it holds only what it needs between
// frames: its float32 sample ring (7,000 B for a 30-s window with 5-s
// updates at 25 fps). The spectrum is computed when Last reads an
// estimate, not at every update: Push runs only the arc fit, the one
// check that can make an update's estimate fail. Neither allocates. Both
// borrow their working buffers (about 117 KiB for a 30-s window, most
// of it the zero-padded spectrum) from a package sync.Pool for the
// length of the call, and the FFT reuses dsp's cached twiddle tables.
// The pool keeps roughly one scratch per P alive, not one per session.
package vitals

import (
	"fmt"
	"math"
	"sync"

	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
)

// Physiological search bands in hertz.
const (
	// RespLowHz and RespHighHz bound plausible breathing rates for a
	// seated adult (9-30 breaths/min). The lower bound deliberately
	// sits above the posture-drift band, which otherwise bleeds into
	// the slowest respiration bins.
	RespLowHz  = 0.15
	RespHighHz = 0.5
	// HeartLowHz and HeartHighHz bound plausible heart rates
	// (48-120 beats/min).
	HeartLowHz  = 0.8
	HeartHighHz = 2.0
)

// Estimate is the output of a vital-sign analysis window.
type Estimate struct {
	// RespirationHz is the estimated breathing rate in hertz (0 when
	// not found).
	RespirationHz float64
	// HeartHz is the estimated heart rate in hertz (0 when not found).
	HeartHz float64
	// RespirationSNR and HeartSNR compare each spectral peak against
	// the median in-band power; higher is more trustworthy.
	RespirationSNR, HeartSNR float64
}

// RespirationBPM returns the breathing rate in breaths per minute.
func (e Estimate) RespirationBPM() float64 { return e.RespirationHz * 60 }

// HeartBPM returns the heart rate in beats per minute.
func (e Estimate) HeartBPM() float64 { return e.HeartHz * 60 }

// minWindowSec is the shortest analysis window that resolves the
// respiration band (a couple of breath cycles).
const minWindowSec = 15.0

// maxSpanSamples caps a Monitor's window and its update interval, each
// counted in samples: 2^22 samples is over 46 hours at 25 fps, and a
// ring at the cap holds 32 MiB per span. A span past it is refused
// rather than allocated.
const maxSpanSamples = 1 << 22

// EstimateFromSeries analyses the slow-time I/Q samples of one range
// bin sampled at fps frames per second. The series should already be
// background-subtracted (static clutter removed).
func EstimateFromSeries(series []complex128, fps float64) (Estimate, error) {
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	return scr.estimate(series, fps)
}

// scratch is the estimator's working storage. Its buffers grow to the
// largest window analysed and are then reused. Estimators borrow one
// from scratchPool for the length of a call, so a Monitor between
// calls holds none of it.
type scratch struct {
	series   []complex128 // a Monitor's window, oldest first
	disp     []float64    // angles, unwrapped in place
	trend    []float64    // disp's moving-average baseline
	prefix   []float64
	hann     []float64 // the Hann window of len(hann) points
	spectrum []complex128
	power    []float64 // |X[k]|² of the non-negative frequencies
	band     []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow resizes s to n elements, reallocating only when its capacity is
// too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (s *scratch) estimate(series []complex128, fps float64) (Estimate, error) {
	if fps <= 0 {
		return Estimate{}, fmt.Errorf("vitals: fps must be positive, got %g", fps)
	}
	if float64(len(series)) < minWindowSec*fps {
		return Estimate{}, fmt.Errorf("vitals: need at least %.0f s of samples, got %.1f s",
			minWindowSec, float64(len(series))/fps)
	}
	// Displacement waveform: the angle around the fitted arc centre
	// scales linearly with radial motion (delta-phi = -4 pi f0 d / c).
	c, err := iq.FitCirclePratt(series)
	if err != nil {
		return Estimate{}, fmt.Errorf("vitals: arc fit: %w", err)
	}
	n := len(series)
	disp := grow(s.disp, n)
	s.disp = disp
	for i, z := range series {
		d := z - c.Center
		disp[i] = math.Atan2(imag(d), real(d))
	}
	iq.UnwrapInPlace(disp)
	// Remove drift slower than any plausible breath: posture settling
	// and tracker wander otherwise dominate the lowest respiration
	// bins. A 10 s centred moving-average baseline, shrinking at the
	// edges, acts as a gentle high-pass at ~0.1 Hz.
	trend := grow(s.trend, n)
	s.trend = trend
	s.prefix = grow(s.prefix, n+1)
	if err := dsp.MovingAverageInto(trend, disp, s.prefix, int(10*fps)|1); err != nil {
		return Estimate{}, fmt.Errorf("vitals: detrend: %w", err)
	}

	// Hann-window and zero-pad to a power of two for frequency
	// resolution.
	if len(s.hann) != n {
		s.hann = dsp.Hann(n)
	}
	nfft := dsp.NextPow2(4 * n)
	spec := grow(s.spectrum, nfft)
	s.spectrum = spec
	for i, v := range disp {
		spec[i] = complex((v-trend[i])*s.hann[i], 0)
	}
	clear(spec[n:])
	dsp.FFTInPlace(spec)
	power := grow(s.power, nfft/2+1)
	s.power = power
	for i := range power {
		re, im := real(spec[i]), imag(spec[i])
		power[i] = re*re + im*im
	}

	var est Estimate
	est.RespirationHz, est.RespirationSNR = s.bandPeak(power, fps, nfft, RespLowHz, RespHighHz, nil)
	// Exclude respiration harmonics from the heart band: breathing at
	// rate f leaks power at 2f..5f which can sit inside 0.8-2 Hz.
	var harmonics [5]float64
	exclude := harmonics[:0]
	if est.RespirationHz > 0 {
		for h := 2.0; h <= 6; h++ {
			exclude = append(exclude, est.RespirationHz*h)
		}
	}
	est.HeartHz, est.HeartSNR = s.bandPeak(power, fps, nfft, HeartLowHz, HeartHighHz, exclude)
	return est, nil
}

// harmonicGuardHz is how close to a respiration harmonic a heart-band
// peak may sit before it is rejected as leakage.
const harmonicGuardHz = 0.06

// bandPeak finds the strongest peak in [lo, hi] hertz of power, the
// non-negative half of an nfft-point spectrum at fps, skipping bins
// within harmonicGuardHz of any excluded frequency. It returns (0, 0)
// when the band is empty or the peak does not rise above the in-band
// median.
func (s *scratch) bandPeak(power []float64, fps float64, nfft int, lo, hi float64, exclude []float64) (float64, float64) {
	band := s.band[:0]
	bestIdx := -1
	for i, p := range power {
		f := float64(i) * fps / float64(nfft)
		if f < lo || f > hi {
			continue
		}
		band = append(band, p)
		skip := false
		for _, ex := range exclude {
			if math.Abs(f-ex) < harmonicGuardHz {
				skip = true
				break
			}
		}
		if skip {
			continue
		}
		if bestIdx < 0 || p > power[bestIdx] {
			bestIdx = i
		}
	}
	s.band = band
	if bestIdx < 0 || len(band) == 0 {
		return 0, 0
	}
	med := dsp.PercentileInPlace(band, 50)
	if med <= 0 {
		return 0, 0
	}
	snr := power[bestIdx] / med
	if snr < 3 {
		// No clear line in the band.
		return 0, 0
	}
	return float64(bestIdx) * fps / float64(nfft), snr
}

// Monitor accumulates slow-time samples of a tracked bin and keeps a
// rolling vital-sign estimate: the streaming counterpart of
// EstimateFromSeries, for use alongside the blink detector.
//
// An update falls every updateSec once windowSec of samples are held,
// and Last returns the estimate of the latest update whose estimate
// succeeded, exactly as if each update had run EstimateFromSeries over
// its window. The estimate itself waits for Last: a consumer that reads
// once a minute pays for one spectrum, not twelve.
type Monitor struct {
	fps    float64
	window int // samples per analysis window
	every  int // samples between updates
	// buf is a ring of window+every samples: enough to still hold the
	// previous update's window when the next update's fit fails.
	buf     []complex64
	pos     int  // next slot to write
	count   int  // samples held, up to len(buf)
	since   int  // pushes since the last update
	pending bool // the last update passed its fit and is not estimated yet

	last     Estimate
	haveLast bool
}

// NewMonitor creates a streaming estimator with the given analysis
// window and update interval in seconds. The window must hold at least
// 15 s of samples, and the interval at least one frame; neither may
// exceed maxSpanSamples samples.
func NewMonitor(fps, windowSec, updateSec float64) (*Monitor, error) {
	if !(fps > 0) || math.IsInf(fps, 1) {
		return nil, fmt.Errorf("vitals: fps must be positive and finite, got %g", fps)
	}
	// Sample counts stay in float64 until they are known to fit: an
	// out-of-range float-to-int conversion is implementation-defined.
	// The window is a whole number of samples, so a 15-s span at a
	// fractional rate can hold less than 15 s. Such a Monitor could never
	// estimate, and refusing it here leaves the arc fit as the one check
	// an update's estimate can fail.
	window := math.Floor(windowSec * fps)
	if !(windowSec >= minWindowSec) || !(window <= maxSpanSamples) || window < minWindowSec*fps {
		return nil, fmt.Errorf("vitals: window must hold at least %.0f s and at most %d samples, got %g s at %g fps",
			minWindowSec, maxSpanSamples, windowSec, fps)
	}
	every := math.Floor(updateSec * fps)
	if !(every >= 1 && every <= maxSpanSamples) {
		return nil, fmt.Errorf("vitals: update interval must be at least one frame and at most %d samples, got %g s at %g fps",
			maxSpanSamples, updateSec, fps)
	}
	return &Monitor{
		fps:    fps,
		window: int(window),
		every:  int(every),
		buf:    make([]complex64, int(window+every)),
	}, nil
}

// Push adds one background-subtracted I/Q sample of the tracked bin. The
// sample is kept at float32 precision, the precision of the radar
// planes it comes from, so a widened float32 pair is stored exactly.
//
// At each update Push fits the window's arc, the one check that can
// make its estimate fail, and leaves the estimate to Last. When the fit
// fails while the previous update still waits to be estimated, that
// update is now the latest one that succeeds, so Push estimates it
// before its window leaves the ring.
func (m *Monitor) Push(z complex128) {
	m.buf[m.pos] = complex64(z)
	m.pos++
	if m.pos == len(m.buf) {
		m.pos = 0
	}
	m.count = min(m.count+1, len(m.buf))
	m.since++
	if m.count < m.window || m.since < m.every {
		return
	}
	m.since = 0
	scr := scratchPool.Get().(*scratch)
	defer scratchPool.Put(scr)
	if _, err := iq.FitCirclePratt(m.series(scr, 0)); err == nil {
		m.pending = true
	} else if m.pending {
		m.pending = false
		m.estimate(scr, m.every)
	}
}

// Last returns the estimate of the latest update whose estimate
// succeeded, and whether one exists. The first call after an update
// computes that update's estimate, borrowing the pooled scratch, and
// caches it.
func (m *Monitor) Last() (Estimate, bool) {
	if m.pending {
		m.pending = false
		scr := scratchPool.Get().(*scratch)
		m.estimate(scr, m.since)
		scratchPool.Put(scr)
	}
	return m.last, m.haveLast
}

// Reset clears the sample window and any estimate (e.g. after the
// tracked bin changes).
func (m *Monitor) Reset() {
	m.pos, m.count, m.since = 0, 0, 0
	m.pending, m.haveLast = false, false
}

// estimate runs the estimator over the window of the update lag pushes
// ago and keeps the result if it succeeds.
func (m *Monitor) estimate(scr *scratch, lag int) {
	if est, err := scr.estimate(m.series(scr, lag), m.fps); err == nil {
		m.last, m.haveLast = est, true
	}
}

// series copies the window of the update lag pushes ago into the
// scratch, oldest first, widened to complex128. The ring still holds it
// while lag <= every.
func (m *Monitor) series(scr *scratch, lag int) []complex128 {
	scr.series = grow(scr.series, m.window)
	at := m.pos - lag - m.window
	if at < 0 {
		at += len(m.buf)
	}
	for i := range scr.series {
		scr.series[i] = complex128(m.buf[at])
		if at++; at == len(m.buf) {
			at = 0
		}
	}
	return scr.series
}
