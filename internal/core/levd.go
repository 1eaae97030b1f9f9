package core

import (
	"math"

	"blinkradar/internal/dsp"
)

const (
	// maxBlinkExtent is the longest plausible single blink in seconds;
	// threshold crossings inside this window of a blink onset are
	// treated as edges of the same blink.
	maxBlinkExtent = 1.2
	// smoothLagFrames is the group delay of the streaming
	// distance-waveform smoother. A causal trailing window cannot look
	// ahead the way a centred, delay-compensated offline filter does,
	// so features surface smoothLagFrames after the samples that caused
	// them; event timestamps subtract it to stay aligned with the
	// offline (and camera ground-truth) timeline.
	smoothLagFrames = (DistanceSmoothFrames - 1) / 2
)

// BlinkEvent is one detected eye blink.
type BlinkEvent struct {
	// Time is the blink onset/apex time in seconds from capture start
	// (the earlier extremum of the triggering pair).
	Time float64
	// Duration is the estimated full blink duration in seconds.
	Duration float64
	// Amplitude is the distance-waveform excursion that triggered the
	// detection.
	Amplitude float64
	// Confidence is Amplitude over the detection threshold at firing
	// time (always > 1). Blink transients typically score well above
	// the marginal interference crossings, so downstream consumers —
	// the drowsiness rate counter in particular — can gate on it.
	Confidence float64
	// Bin is the range bin the detection was made on.
	Bin int
}

// LEVD implements the paper's local extreme value detection
// (Section IV-E, "Extreme value separation"): find alternating local
// maxima and minima of the distance waveform and declare a blink when
// the difference between two neighbouring extrema exceeds ThresholdK
// times the no-blink standard deviation.
//
// The waveform is first smoothed and detrended with a trailing moving
// median, so the extremum comparison sees only transients; the no-blink
// sigma is a rolling MAD of the detrended residual, which sparse blink
// outliers cannot inflate.
type LEVD struct {
	k            float64
	minThreshold float64
	floor        float64
	fps          float64
	frozen       bool

	// Distance-waveform smoothing.
	smoothBuf [DistanceSmoothFrames]float64
	smoothPos int
	smoothCnt int

	// Trailing moving-median detrend.
	trend *dsp.StreamingMedian

	// Rolling robust sigma of the residual.
	sigmaWin   *dsp.StreamingMedian
	sigma      float64
	tail80     float64
	sinceSigma int
	sigmaEvery int

	// Extremum tracking.
	prev     float64
	dir      int // +1 rising, -1 falling, 0 unknown
	havePrev bool
	extVal   float64
	extIdx   int
	extMax   bool
	haveExt  bool

	lastEvent float64
	frame     int

	// Pending event: a fired detection is held until the bump's
	// ringing ends (refractory expiry) so its duration can cover the
	// full rise-to-fall extent.
	pending      BlinkEvent
	pendingSpan  float64
	havePending  bool
	pendingStart float64
}

// NewLEVD constructs a detector from the pipeline configuration.
func NewLEVD(cfg Config, fps float64) (*LEVD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := checkFrameRate(fps); err != nil {
		return nil, err
	}
	trend, err := dsp.NewStreamingMedian(DetrendWindowFrames)
	if err != nil {
		return nil, err
	}
	sigmaWin, err := dsp.NewStreamingMedian(max(int(sigmaWindowSec*fps), 10))
	if err != nil {
		return nil, err
	}
	return &LEVD{
		k:            cfg.ThresholdK,
		minThreshold: minThreshold,
		fps:          fps,
		trend:        trend,
		sigmaWin:     sigmaWin,
		sigmaEvery:   int(fps),
		lastEvent:    math.Inf(-1),
	}, nil
}

// Threshold returns the current detection threshold (k * sigma, with
// the configured floors).
func (l *LEVD) Threshold() float64 {
	thr := l.k * l.sigma
	// Tail guard: respiration- and vibration-driven amplitude wobble
	// has heavy-tailed deviation statistics that a MAD underestimates.
	// Keeping the threshold above a high quantile of recent baseline
	// deviations suppresses those periodic false crossings.
	if t := tailGuardK * l.tail80; t > thr {
		thr = t
	}
	if thr < l.minThreshold {
		thr = l.minThreshold
	}
	if thr < l.floor {
		thr = l.floor
	}
	return thr
}

// Sigma returns the current no-blink sigma estimate.
func (l *LEVD) Sigma() float64 { return l.sigma }

// SetFloor sets an additional dynamic threshold floor (e.g. a fraction
// of the tracked arc radius).
func (l *LEVD) SetFloor(f float64) { l.floor = f }

// SetFrozen pauses (true) or resumes (false) sigma adaptation. The
// detector freezes the estimate while the tracker re-converges after a
// restart, so the transient does not inflate the threshold; the last
// converged sigma keeps gating detections meanwhile.
func (l *LEVD) SetFrozen(frozen bool) { l.frozen = frozen }

// ResetSigma discards the rolling sigma history. The detector calls it
// once the tracker first matures, so the centre-convergence transient
// does not linger in the threshold estimate.
func (l *LEVD) ResetSigma() {
	l.sigmaWin.Reset()
	l.sigma = 0
	l.tail80 = 0
	l.sinceSigma = 0
}

// Push feeds the distance sample for capture frame index frame
// (monotonically increasing across restarts). It returns a detected
// blink and true when an extremum pair crosses the threshold.
//
//blinkradar:hotpath
func (l *LEVD) Push(d float64, frame int) (BlinkEvent, bool) {
	l.frame = frame
	v := l.smooth(d)
	base, ok := l.detrend(v)
	if !ok {
		return BlinkEvent{}, false
	}
	r := v - base
	if !l.frozen || l.sigma == 0 {
		l.updateSigma(r)
	}
	l.step(r)
	// Emit the pending event once its bump has stopped ringing: no
	// above-threshold extremum for a full refractory period.
	if l.havePending && float64(frame)/l.fps-l.lastEvent > RefractorySec {
		return l.finalizePending(), true
	}
	return BlinkEvent{}, false
}

// finalizePending closes the pending event, deriving its duration from
// the full extent of above-threshold activity (onset to the last
// extension). Single-crossing interference has no extension and ends up
// with the floor duration, which downstream rate counting filters out.
func (l *LEVD) finalizePending() BlinkEvent {
	ev := l.pending
	ring := l.lastEvent - l.pendingStart
	dur := ring + 0.12
	if alt := l.pendingSpan * 3; alt > dur {
		dur = alt
	}
	ev.Duration = clamp(dur, 0.075, 1.5)
	l.havePending = false
	return ev
}

// Flush returns any pending event at end of stream.
func (l *LEVD) Flush() (BlinkEvent, bool) {
	if !l.havePending {
		return BlinkEvent{}, false
	}
	return l.finalizePending(), true
}

// smooth applies the streaming moving average.
//
//blinkradar:hotpath
func (l *LEVD) smooth(d float64) float64 {
	l.smoothBuf[l.smoothPos] = d
	l.smoothPos = (l.smoothPos + 1) % len(l.smoothBuf)
	if l.smoothCnt < len(l.smoothBuf) {
		l.smoothCnt++
	}
	var acc float64
	for i := 0; i < l.smoothCnt; i++ {
		acc += l.smoothBuf[i]
	}
	return acc / float64(l.smoothCnt)
}

// detrend maintains the trailing moving median and returns it once the
// window has filled enough to be meaningful.
//
//blinkradar:hotpath
func (l *LEVD) detrend(v float64) (float64, bool) {
	l.trend.Push(v)
	if l.trend.Count() < DetrendWindowFrames/2 {
		return 0, false
	}
	return l.trend.Median(), true
}

// updateSigma maintains the rolling MAD-based sigma estimate. The
// window is a StreamingMedian, so each recomputation reads order
// statistics from its sorted view instead of sorting: the median is
// one indexed load, and the MAD plus 80th-percentile deviation come
// from a single outward two-pointer merge from the median — the
// absolute deviations of a sorted array are the merge of two sorted
// runs, one descending to the left of the median and one ascending to
// the right. The estimates are bit-identical to the sort-based
// implementation (same multisets, same ranks) at a fraction of the
// cost: O(log n) search plus one memmove per frame and one O(n)
// branch-light scan per recomputation, against two O(n log n) sorts.
//
//blinkradar:hotpath
func (l *LEVD) updateSigma(v float64) {
	l.sigmaWin.Push(v)
	l.sinceSigma++
	if l.sinceSigma < l.sigmaEvery && l.sigma > 0 {
		return
	}
	l.sinceSigma = 0
	s := l.sigmaWin.Sorted()
	n := len(s)
	if n < 10 {
		return
	}
	med := s[n/2]
	// Outward merge over the deviations |s[i]-med|: rank 0 is the
	// median itself (deviation 0), then each step consumes the smaller
	// of the next deviation leftward (med-s[lp]) or rightward
	// (s[rp]-med). Exhausted sides yield +Inf so the other side drains.
	kMad := n / 2
	k80 := n * 4 / 5
	lp, rp := n/2-1, n/2+1
	cur := 0.0
	for taken := 0; taken < k80; taken++ {
		dl, dr := math.Inf(1), math.Inf(1)
		if lp >= 0 {
			dl = med - s[lp]
		}
		if rp < n {
			dr = s[rp] - med
		}
		if dl <= dr {
			cur = dl
			lp--
		} else {
			cur = dr
			rp++
		}
		if taken+1 == kMad {
			// 1.4826 scales MAD to sigma for Gaussian noise.
			l.sigma = 1.4826 * cur
		}
	}
	l.tail80 = cur
}

// step runs the extremum state machine and detection rule.
//
//blinkradar:hotpath
func (l *LEVD) step(v float64) {
	if !l.havePrev {
		l.prev = v
		l.havePrev = true
		return
	}
	var newDir int
	switch {
	case v > l.prev:
		newDir = 1
	case v < l.prev:
		newDir = -1
	default:
		newDir = l.dir
	}
	if l.dir != 0 && newDir != l.dir && newDir != 0 {
		// Direction flipped at the previous sample: it was an extremum.
		l.onExtremum(extremum{val: l.prev, idx: l.frame - 1, max: l.dir > 0})
	}
	l.prev = v
	l.dir = newDir
}

type extremum struct {
	val float64
	idx int
	max bool
}

// onExtremum compares the new extremum with the previous one of the
// opposite kind and applies the threshold rule. The previous extremum is
// captured in locals and the fields updated up front, replacing an
// earlier deferred closure that allocated on every direction flip.
//
//blinkradar:hotpath
func (l *LEVD) onExtremum(e extremum) {
	prevVal, prevIdx, prevMax, hadExt := l.extVal, l.extIdx, l.extMax, l.haveExt
	l.extVal, l.extIdx, l.extMax, l.haveExt = e.val, e.idx, e.max, true
	if !hadExt || prevMax == e.max {
		return
	}
	diff := math.Abs(e.val - prevVal)
	if l.sigma == 0 || diff <= l.Threshold() {
		return
	}
	// Timestamp at the earlier extremum of the pair: for the closing
	// edge that is the bump onset, for the reopening edge the bump
	// apex — either lies within the blink interval, whereas the later
	// extremum of a reopening pair can trail the blink entirely. The
	// smoother's group delay is subtracted so streaming timestamps match
	// the offline timeline (see smoothLagFrames).
	t := (float64(prevIdx) - smoothLagFrames) / l.fps
	if t < 0 {
		t = 0
	}
	// A trigger belongs to the current blink while it falls inside the
	// refractory window of the last trigger or within the maximum
	// plausible blink extent of the pending onset (a slow reopening
	// edge can trail the onset by most of a second). Once the pending
	// event has been emitted, only the refractory applies: suppressing
	// further would swallow genuine consecutive blinks, whose onsets
	// can be as close as ~1.3 s. The residual cost is a possible echo
	// detection ~1.2 s after an unusually long closure, which the
	// duration gate keeps out of the blink-rate statistics.
	samePending := l.havePending && t-l.pendingStart < maxBlinkExtent
	if t-l.lastEvent < RefractorySec || samePending {
		if t > l.lastEvent {
			l.lastEvent = t
		}
		if l.havePending && diff > l.pending.Amplitude {
			l.pending.Amplitude = diff
			l.pending.Confidence = diff / l.Threshold()
		}
		return
	}
	l.lastEvent = t
	span := math.Abs(float64(e.idx-prevIdx)) / l.fps
	l.pending = BlinkEvent{Time: t, Amplitude: diff, Confidence: diff / l.Threshold()}
	l.pendingSpan = span
	l.pendingStart = t
	l.havePending = true
}

// Reset clears the waveform state (used after tracker restarts). The
// sigma estimate is retained: the noise floor of the new viewing
// position is close to the old one, and keeping it avoids a blind
// re-estimation window.
func (l *LEVD) Reset() {
	l.havePending = false
	l.smoothPos, l.smoothCnt = 0, 0
	l.trend.Reset()
	l.havePrev = false
	l.haveExt = false
	l.dir = 0
}

// ResetFull returns the detector to its as-constructed state without
// reallocating any buffer: sigma history, the event clock and the
// pending event are discarded along with the waveform state. Reset is
// for same-stream restarts, where the noise floor and refractory carry
// over; ResetFull is for recycling the detector onto a different stream
// (session pooling), where nothing may carry over.
func (l *LEVD) ResetFull() {
	l.Reset()
	l.ResetSigma()
	l.floor = 0
	l.frozen = false
	l.lastEvent = math.Inf(-1)
	l.frame = 0
	l.pending = BlinkEvent{}
	l.pendingSpan = 0
	l.pendingStart = 0
	l.prev = 0
	l.extVal, l.extIdx, l.extMax = 0, 0, false
}

// DeliveryLagSec bounds how long after an event's stamped Time the
// event can surface from Push (or Flush). An event is stamped at the
// earlier extremum of its triggering pair minus the smoother group
// delay, but is only emitted once its bump stops ringing: no further
// above-threshold extremum for a full refractory period, with ringing
// itself bounded by maxBlinkExtent past the onset. Window accounting
// that waits this long past a boundary before closing the window is
// guaranteed to have seen every event belonging to it (assuming the
// ringing bound holds; pathological sustained ringing can exceed it).
func (l *LEVD) DeliveryLagSec() float64 {
	return maxBlinkExtent + RefractorySec + (smoothLagFrames+2)/l.fps
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
