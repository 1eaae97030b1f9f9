package core

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/obs"
	"blinkradar/internal/rf"
)

// Detector is the complete real-time BlinkRadar pipeline. Feed frames
// as they arrive; detections are returned as soon as the corresponding
// extremum pair is confirmed (paper: one output every frame period
// after the 2 s cold start). Detector is not safe for concurrent use.
type Detector struct {
	cfg  Config
	fps  float64
	bins int

	pre     *Preprocessor
	ring    *binRing
	tracker *Tracker
	levd    *LEVD

	frame        int
	reselectDue  bool // a reselection fell due on a rejected frame
	matured      bool
	everMatured  bool
	everSelected bool
	challenger   int
	bin          int
	haveBin      bool
	settleUntil  int
	restarts     int
	binSwitches  int

	// Input-sanitization and gap-handling state (see sanitize.go).
	in            InputStats
	consecRejects int
	lastGood      iq.Planes32
	haveGood      bool
	health        atomic.Int32 // HealthState; read cross-goroutine

	// Motion-restart state.
	med     *dsp.StreamingMedian
	sustain int

	// Optional diagnostics trace.
	trace     bool
	distTrace []float64
	thrTrace  []float64
	cur       iq.Planes32 // per-frame SoA working copy

	// Metrics (nil-safe no-ops until SetRegistry attaches a registry).
	mFrames      *obs.Counter
	mBlinks      *obs.Counter
	mRestarts    *obs.Counter
	mBinSwitches *obs.Counter
	mLatency     *obs.Histogram
	mStagePre    *obs.Histogram
	mStageSelect *obs.Histogram
	mStageTrack  *obs.Histogram
	gAllocs      *obs.Gauge

	mFramesRejected *obs.Counter
	mBinsRepaired   *obs.Counter
	mBinsClamped    *obs.Counter
	mGapFrames      *obs.Counter
	mGapResets      *obs.Counter
	gHealth         *obs.Gauge

	// Allocation sampling state (process-wide heap-object deltas from
	// runtime/metrics, averaged over allocSampleEvery frames).
	allocSample     []metrics.Sample
	allocPrev       uint64
	allocPrevValid  bool
	framesSinceSamp int
}

// allocSampleEvery is how many frames pass between allocs/frame gauge
// updates; reading runtime metrics per frame would cost more than the
// hot path it watches.
const allocSampleEvery = 256

// NewDetector builds a detector for frames with numBins range bins at
// frameRate frames per second.
func NewDetector(cfg Config, numBins int, frameRate float64) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numBins <= GuardBins {
		return nil, fmt.Errorf("core: need more than %d guard bins, got %d bins", GuardBins, numBins)
	}
	if err := checkFrameRate(frameRate); err != nil {
		return nil, err
	}
	pre, err := NewPreprocessor(cfg, numBins, frameRate)
	if err != nil {
		return nil, err
	}
	tracker, err := NewTracker(FitWindowFrames, cfg.RefitIntervalFrames, ColdStartFrames, centerBlend)
	if err != nil {
		return nil, err
	}
	levd, err := NewLEVD(cfg, frameRate)
	if err != nil {
		return nil, err
	}
	window := max(selectWindowFrames, ColdStartFrames)
	med, err := dsp.NewStreamingMedian(int(frameRate*2) + 1)
	if err != nil {
		return nil, err
	}
	return &Detector{
		cfg:      cfg,
		fps:      frameRate,
		bins:     numBins,
		pre:      pre,
		ring:     newBinRing(numBins, GuardBins, window),
		tracker:  tracker,
		levd:     levd,
		bin:      -1,
		med:      med,
		cur:      iq.MakePlanes32(numBins),
		lastGood: iq.MakePlanes32(numBins),
	}, nil
}

// Config returns the effective configuration.
func (d *Detector) Config() Config { return d.cfg }

// DeliveryLagSec bounds how long after a blink's stamped Time the event
// can surface from Feed. Consumers that bucket events into time windows
// must hold a window open this long past its end before closing it, or
// an event delivered just after the boundary lands in no window at all.
func (d *Detector) DeliveryLagSec() float64 { return d.levd.DeliveryLagSec() }

// Reset returns the detector to its just-constructed state without
// releasing or reallocating any buffer, so a session pool can recycle
// detectors across stream churn with zero steady-state allocations.
// Unlike the internal gap-recovery path, nothing carries over: the
// background clutter estimate, sigma history, event clock and all
// counters are discarded — recycled state serves a different radar.
func (d *Detector) Reset() {
	d.pre.Reset()
	d.ring.reset()
	d.tracker.ResetFull()
	d.levd.ResetFull()
	d.med.Reset()
	d.frame, d.reselectDue = 0, false
	d.matured, d.everMatured, d.everSelected = false, false, false
	d.challenger = 0
	d.bin, d.haveBin = -1, false
	d.settleUntil = 0
	d.restarts, d.binSwitches = 0, 0
	d.in = InputStats{}
	d.consecRejects = 0
	d.haveGood = false
	d.sustain = 0
	d.distTrace = d.distTrace[:0]
	d.thrTrace = d.thrTrace[:0]
	d.allocPrevValid = false
	d.framesSinceSamp = 0
	d.setHealth(HealthAcquiring)
}

// SetRegistry attaches an observability registry. Call before feeding
// frames. Exported metrics:
//
//	core_frames_total            frames consumed
//	core_blinks_total            confirmed blink detections
//	core_restarts_total          motion-triggered pipeline restarts
//	core_bin_switches_total      adaptive bin migrations
//	core_frame_latency_seconds   per-frame processing latency histogram
//	core_stage_preprocess_seconds  preprocessing stage latency
//	core_stage_select_seconds    bin-selection pass latency (sparse)
//	core_stage_track_seconds     tracker+LEVD stage latency
//	core_allocs_per_frame        process heap objects allocated per frame,
//	                             sampled every allocSampleEvery frames
//	core_frames_rejected_total   frames discarded by input sanitization
//	core_bins_repaired_total     non-finite bins patched in place
//	core_bins_clamped_total      saturated bins clamped to the limit
//	core_seq_gap_frames_total    upstream frame losses reported via NoteGap
//	core_gap_resets_total        re-acquisitions forced by unbridgeable gaps
//	core_health_state            current HealthState (0=acquiring,
//	                             1=tracking, 2=reacquiring, 3=degraded)
func (d *Detector) SetRegistry(r *obs.Registry) {
	d.mFrames = r.Counter("core_frames_total")
	d.mBlinks = r.Counter("core_blinks_total")
	d.mRestarts = r.Counter("core_restarts_total")
	d.mBinSwitches = r.Counter("core_bin_switches_total")
	d.mLatency = r.Histogram("core_frame_latency_seconds", obs.DefLatencyBuckets())
	d.mStagePre = r.Histogram("core_stage_preprocess_seconds", obs.DefLatencyBuckets())
	d.mStageSelect = r.Histogram("core_stage_select_seconds", obs.DefLatencyBuckets())
	d.mStageTrack = r.Histogram("core_stage_track_seconds", obs.DefLatencyBuckets())
	d.gAllocs = r.Gauge("core_allocs_per_frame")
	d.mFramesRejected = r.Counter("core_frames_rejected_total")
	d.mBinsRepaired = r.Counter("core_bins_repaired_total")
	d.mBinsClamped = r.Counter("core_bins_clamped_total")
	d.mGapFrames = r.Counter("core_seq_gap_frames_total")
	d.mGapResets = r.Counter("core_gap_resets_total")
	d.gHealth = r.Gauge("core_health_state")
	d.gHealth.Set(float64(d.Health()))
	d.allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
}

// sampleAllocs updates the allocs/frame gauge from the process-wide
// heap-object counter. The delta is averaged over the sampling window,
// so concurrent allocators show up as shared background noise rather
// than per-detector truth — good enough to catch a hot-path regression
// in the field.
func (d *Detector) sampleAllocs() {
	d.framesSinceSamp++
	if d.framesSinceSamp < allocSampleEvery {
		return
	}
	metrics.Read(d.allocSample)
	now := d.allocSample[0].Value.Uint64()
	if d.allocPrevValid {
		d.gAllocs.Set(float64(now-d.allocPrev) / float64(d.framesSinceSamp))
	}
	d.allocPrev = now
	d.allocPrevValid = true
	d.framesSinceSamp = 0
}

// EnableTrace records the distance waveform and threshold per frame for
// figure generation. Call before feeding frames.
func (d *Detector) EnableTrace() { d.trace = true }

// Trace returns the recorded per-frame distance waveform and threshold
// (empty unless EnableTrace was called). Frames before tracking starts
// hold zeros.
func (d *Detector) Trace() (distance, threshold []float64) {
	return d.distTrace, d.thrTrace
}

// Bin returns the currently tracked range bin (-1 before selection).
func (d *Detector) Bin() int {
	if !d.haveBin {
		return -1
	}
	return d.bin
}

// CurrentSample returns the most recent background-subtracted I/Q
// sample of the tracked bin, for consumers that analyse the same
// stream (e.g. vital-sign estimation). ok is false before bin
// selection.
func (d *Detector) CurrentSample() (z complex128, bin int, ok bool) {
	if !d.haveBin || d.ring.size() == 0 {
		return 0, -1, false
	}
	return d.ring.latest(d.bin), d.bin, true
}

// Restarts returns how many full restarts were triggered by large body
// motion.
func (d *Detector) Restarts() int { return d.restarts }

// BinSwitches returns how many adaptive bin migrations occurred.
func (d *Detector) BinSwitches() int { return d.binSwitches }

// Frame returns the number of frames consumed so far, rejected ones
// included: it is the slow-time clock events are stamped from.
func (d *Detector) Frame() int { return d.frame }

// NumBins returns the per-frame bin count the detector was built for.
func (d *Detector) NumBins() int { return d.bins }

// Feed consumes one radar frame (length must equal numBins). The input
// slice is not retained or modified. It returns a detected blink and
// true when a detection is confirmed at this frame.
//
// Internally the pipeline runs on the float32 SoA layout: the frame is
// narrowed into the detector's plane scratch (the sanctioned
// float64→float32 boundary — raw samples only, never statistics) and
// every stage after that is a real-valued per-plane pass. Callers that
// already hold planes should use FeedPlanes and skip the conversion.
func (d *Detector) Feed(frame []complex128) (BlinkEvent, bool, error) {
	if len(frame) != d.bins {
		return BlinkEvent{}, false, fmt.Errorf("core: frame has %d bins, detector configured for %d", len(frame), d.bins)
	}
	timed := d.mLatency != nil
	var start time.Time
	if timed {
		start = time.Now()
		defer func() {
			d.mLatency.Observe(time.Since(start).Seconds())
			d.sampleAllocs()
		}()
	}
	d.cur.FromComplex(frame)
	return d.feedCur(timed, start)
}

// FeedPlanes is Feed for callers that already hold the frame as float32
// I/Q planes (the transport decode path), skipping the complex
// round-trip entirely. The input slices are not retained or modified.
func (d *Detector) FeedPlanes(pi, pq []float32) (BlinkEvent, bool, error) {
	if len(pi) != d.bins || len(pq) != d.bins {
		n := len(pi)
		if len(pq) != n {
			n = -1
		}
		return BlinkEvent{}, false, fmt.Errorf("core: frame has %d bins, detector configured for %d", n, d.bins)
	}
	timed := d.mLatency != nil
	var start time.Time
	if timed {
		start = time.Now()
		defer func() {
			d.mLatency.Observe(time.Since(start).Seconds())
			d.sampleAllocs()
		}()
	}
	copy(d.cur.I, pi)
	copy(d.cur.Q, pq)
	return d.feedCur(timed, start)
}

// feedCur runs the pipeline over the frame staged in d.cur.
func (d *Detector) feedCur(timed bool, start time.Time) (BlinkEvent, bool, error) {
	d.mFrames.Inc()
	if !d.sanitizeFrame(d.cur.I, d.cur.Q) {
		d.noteReject()
		return BlinkEvent{}, false, nil
	}
	d.noteAccept()
	if err := d.pre.ProcessPlanes(d.cur.I, d.cur.Q); err != nil {
		return BlinkEvent{}, false, err
	}
	if timed {
		d.mStagePre.Observe(time.Since(start).Seconds())
	}
	d.ring.push(d.cur.I, d.cur.Q)
	d.frame++

	if !d.haveBin {
		// Gate on the ring, not the absolute frame count, so that a
		// post-gap re-acquisition waits for a full window of clean
		// frames rather than firing on a near-empty ring.
		if d.ring.size() >= ColdStartFrames {
			d.selectBin(false)
		}
		d.pushTrace(0)
		return BlinkEvent{}, false, nil
	}

	var trackStart time.Time
	if timed {
		trackStart = time.Now()
	}
	dist, ok := d.tracker.Push(d.cur.At(d.bin))
	if !ok {
		if timed {
			d.mStageTrack.Observe(time.Since(trackStart).Seconds())
		}
		d.pushTrace(0)
		return BlinkEvent{}, false, nil
	}
	if !d.matured && d.tracker.Mature() {
		d.matured = true
		if !d.everMatured {
			// First convergence: discard the transient-contaminated
			// estimate entirely.
			d.everMatured = true
			d.levd.ResetSigma()
		}
	}
	d.levd.SetFrozen(!d.matured && d.everMatured)
	d.levd.SetFloor(minThresholdFrac * d.tracker.Radius())
	ev, fired := d.levd.Push(dist, d.frame)
	if timed {
		d.mStageTrack.Observe(time.Since(trackStart).Seconds())
	}
	d.pushTrace(dist)

	d.checkMotionRestart(dist)
	if d.reselectDue || d.frame%d.cfg.ReselectIntervalFrames == 0 {
		d.reselectDue = false
		d.maybeReselect()
	}

	if fired && d.frame >= d.settleUntil {
		ev.Bin = d.bin
		d.mBlinks.Inc()
		return ev, true, nil
	}
	return BlinkEvent{}, false, nil
}

// pushTrace records diagnostics when tracing is enabled.
func (d *Detector) pushTrace(dist float64) {
	if !d.trace {
		return
	}
	d.distTrace = append(d.distTrace, dist)
	d.thrTrace = append(d.thrTrace, d.levd.Threshold())
}

// runSelection ranks the selection ring's bins and records the pass
// duration.
func (d *Detector) runSelection(scr *selectScratch) (binScore, bool) {
	var start time.Time
	if d.mStageSelect != nil {
		start = time.Now()
	}
	best, ok := rankBins(scr, d.ring)
	if d.mStageSelect != nil {
		d.mStageSelect.Observe(time.Since(start).Seconds())
	}
	return best, ok
}

// seedTracker re-seeds the tracker from the ring history of the tracked
// bin, gathered into the pass's scratch.
func (d *Detector) seedTracker(scr *selectScratch) {
	scr.series = d.ring.seriesInto(d.bin, scr.series)
	d.tracker.Reset()
	d.tracker.Seed(tail(scr.series, FitWindowFrames))
}

// selectBin runs eye-bin identification over the selection ring and
// seeds the tracker. reselect marks adaptive re-selection (keeps sigma).
func (d *Detector) selectBin(reselect bool) {
	scr := selectPool.Get().(*selectScratch)
	defer selectPool.Put(scr)
	best, ok := d.runSelection(scr)
	if !ok {
		return
	}
	d.bin = best.bin
	d.haveBin = true
	d.everSelected = true
	d.matured = false
	d.seedTracker(scr)
	d.levd.Reset()
	d.setHealth(HealthTracking)
	if reselect {
		d.settleUntil = d.frame + settleFrames
	}
}

// maybeReselect migrates to a clearly better bin (adaptive update of
// the observation position as the driver's posture drifts).
func (d *Detector) maybeReselect() {
	scr := selectPool.Get().(*selectScratch)
	defer selectPool.Put(scr)
	best, ok := d.runSelection(scr)
	if !ok || best.bin == d.bin {
		return
	}
	scr.series = d.ring.seriesInto(d.bin, scr.series)
	scr.res = grow(scr.res, len(scr.series))
	current := scoreBinRes(d.bin, scr.series, scr.res)
	if best.score > switchScoreRatio*current.score {
		// Demand persistence: a challenger must win two consecutive
		// evaluations, or transient interference would churn the
		// tracker through bins and keep it perpetually immature.
		if best.bin != d.challenger {
			d.challenger = best.bin
			return
		}
		d.challenger = -1
		d.bin = best.bin
		d.binSwitches++
		d.mBinSwitches.Inc()
		d.matured = false
		d.seedTracker(scr)
		d.levd.Reset()
		d.settleUntil = d.frame + settleFrames
	}
}

// checkMotionRestart restarts the whole pipeline when the distance
// waveform departs from its running median for a sustained period —
// the signature of a large posture change, unlike a transient blink.
// The median window updates incrementally (O(log n) search per frame)
// instead of re-sorting a copy of the buffer every frame; the check
// itself still waits for a full window, signalled by Push's eviction
// report.
//
//blinkradar:hotpath
func (d *Detector) checkMotionRestart(dist float64) {
	if !d.med.Push(dist) {
		// Still filling the two-second window after startup.
		return
	}
	med := d.med.Median()
	sigma := d.levd.Sigma()
	if sigma <= 0 {
		return
	}
	if math.Abs(dist-med) > d.cfg.RestartVarRatio*sigma {
		d.sustain++
	} else if d.sustain > 0 {
		d.sustain--
	}
	if d.sustain >= motionSustainFrames {
		d.restart()
	}
}

// restart re-runs bin selection from the current ring, re-seeds the
// tracker and clears the motion counter. A motion restart is a rare,
// deliberate stall: it re-runs the full bin-selection sweep, whose
// scratch buffers may still grow, so the transitive hot-path check
// treats it as a reviewed cold branch.
//
//blinkradar:coldpath
func (d *Detector) restart() {
	d.restarts++
	d.mRestarts.Inc()
	d.sustain = 0
	d.selectBin(true)
}

// tail returns the last n elements of s (or s itself if shorter).
func tail(s []complex128, n int) []complex128 {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

// Flush returns any event still pending at end of stream (a blink whose
// refractory window had not yet expired).
func (d *Detector) Flush() (BlinkEvent, bool) {
	ev, ok := d.levd.Flush()
	if ok {
		ev.Bin = d.bin
	}
	return ev, ok && d.frame >= d.settleUntil
}

// Detect runs the full pipeline over a recorded capture and returns all
// detected blinks. It is the offline entry point used by experiments.
func Detect(cfg Config, m *rf.FrameMatrix) ([]BlinkEvent, *Detector, error) {
	det, err := NewDetector(cfg, m.NumBins(), m.FrameRate)
	if err != nil {
		return nil, nil, err
	}
	var events []BlinkEvent
	for _, frame := range m.Data {
		ev, ok, err := det.Feed(frame)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			events = append(events, ev)
		}
	}
	if ev, ok := det.Flush(); ok {
		events = append(events, ev)
	}
	return events, det, nil
}
