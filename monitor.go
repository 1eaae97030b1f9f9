package blinkradar

import (
	"fmt"
	"math"

	"blinkradar/internal/core"
	"blinkradar/internal/obs"
	"blinkradar/internal/vitals"
)

// Monitor is the highest-level API: a streaming drowsy-driving monitor
// that consumes radar frames, detects blinks, maintains the rolling
// blink-rate window, and — once calibrated — raises drowsiness
// assessments. It composes a Detector with a DrowsinessModel exactly as
// the in-car deployment does. Monitor is not safe for concurrent use.
type Monitor struct {
	det       *Detector
	model     *DrowsinessModel
	frameRate float64

	// Window accounting. Boundaries are tracked as exact wall-clock
	// seconds (winStart/winEnd), not a truncated frame count: for
	// non-integer windowSec*frameRate products an integer frame window
	// both shortens every window and drifts its boundary away from the
	// wall clock while BlinkRate still divides by windowSec. Frames only
	// *trigger* assessment, once their timeline passes the boundary.
	// The core.Seconds/core.Frames unit types keep the two clocks from
	// mixing without a rate: that exact confusion was the drift bug.
	windowSec core.Seconds // span of every window, fixed at construction
	winStart  core.Seconds // start of the open window
	winEnd    core.Seconds // end of the open window
	// lagSec defers each window's assessment past its end by the
	// detector's delivery lag: LEVD stamps events in the past (smoother
	// group delay, refractory hold), so a blink delivered just after a
	// boundary can carry Time < winStart of the new window. Assessing
	// only once every event for the window must have been delivered
	// lands each event in exactly one window.
	lagSec core.Seconds

	vitals    *vitals.Monitor
	vitalsBin core.Bin

	// tally holds the open window's blinks, counted by the offline
	// windows' rule (ExtractWindows): detections shorter than
	// core.RateDurationGate are not counted.
	tally core.WindowTally
	frame core.Frames

	// Metrics (nil-safe no-ops until SetRegistry attaches a registry).
	mAssessments *obs.Counter
	mDrowsy      *obs.Counter
	gBlinkRate   *obs.Gauge
}

// Assessment is the monitor's rolling judgement for the latest
// completed window.
type Assessment struct {
	// WindowEnd is the end time of the assessed window in seconds.
	WindowEnd float64
	// Features are the window's blink statistics, computed as
	// ExtractWindows computes them: detections shorter than the 0.35-s
	// duration gate are not counted.
	Features WindowFeatures
	// Drowsy is the classification (false when the model is not
	// calibrated).
	Drowsy bool
	// Posterior is the drowsy probability under equal priors (0.5
	// when uncalibrated).
	Posterior float64
	// Calibrated reports whether a trained model produced the
	// judgement.
	Calibrated bool
	// Vitals carries the latest vital-sign estimate from the same
	// radar stream, when one is available.
	Vitals *VitalsEstimate
}

// NewMonitor builds a monitor for frames with numBins range bins at
// frameRate frames per second, assessing drowsiness over windows of
// windowSec seconds (the paper uses 60).
func NewMonitor(cfg Config, numBins int, frameRate, windowSec float64) (*Monitor, error) {
	if err := checkWindowSec(windowSec); err != nil {
		return nil, err
	}
	det, err := NewDetector(cfg, numBins, frameRate)
	if err != nil {
		return nil, err
	}
	vm, err := vitals.NewMonitor(frameRate, 30, 5)
	if err != nil {
		return nil, err
	}
	span := core.SecondsOf(windowSec)
	return &Monitor{
		det:       det,
		model:     &DrowsinessModel{},
		windowSec: span,
		winEnd:    span,
		lagSec:    core.SecondsOf(det.DeliveryLagSec()),
		frameRate: frameRate,
		vitals:    vm,
		vitalsBin: -1,
	}, nil
}

// checkWindowSec accepts a finite, positive window span. A NaN or
// infinite span would never close a window, so no assessment would
// ever be made.
func checkWindowSec(sec float64) error {
	if !(sec > 0) || math.IsInf(sec, 1) {
		return fmt.Errorf("blinkradar: window must be positive and finite, got %g", sec)
	}
	return nil
}

// Reset returns the monitor to its just-constructed state without
// allocating, so a session pool can recycle monitors across stream
// churn. The per-driver drowsiness calibration is cleared too: recycled
// state serves a different driver.
func (m *Monitor) Reset() {
	m.det.Reset()
	m.vitals.Reset()
	m.vitalsBin = -1
	m.tally = core.WindowTally{}
	m.frame = 0
	m.winStart, m.winEnd = 0, m.windowSec
	*m.model = DrowsinessModel{}
}

// SetRegistry attaches an observability registry to the monitor and
// its detector. Call before feeding frames. Exported metrics (plus the
// core_* set from the Detector):
//
//	monitor_assessments_total    completed window assessments
//	monitor_drowsy_total         windows classified drowsy
//	monitor_window_blink_rate    blinks/min of the latest window
func (m *Monitor) SetRegistry(r *obs.Registry) {
	m.mAssessments = r.Counter("monitor_assessments_total")
	m.mDrowsy = r.Counter("monitor_drowsy_total")
	m.gBlinkRate = r.Gauge("monitor_window_blink_rate")
	m.det.SetRegistry(r)
}

// Calibrate trains the per-driver drowsiness model from labelled
// enrolment windows (paper Section V: one awake and one drowsy
// recording per participant).
func (m *Monitor) Calibrate(awake, drowsy []WindowFeatures) error {
	return m.model.Train(awake, drowsy)
}

// Calibrated reports whether drowsiness classification is active.
func (m *Monitor) Calibrated() bool { return m.model.Trained() }

// Feed consumes one radar frame. It returns a detected blink (ok true)
// and, once each completed window's delivery lag has expired, a non-nil
// Assessment. When the assessment fails (a calibration-model error)
// that window goes unassessed while the next one is already open, and
// the detected blink — already recorded — is still returned alongside
// the error rather than swallowed.
func (m *Monitor) Feed(frame []complex128) (ev BlinkEvent, ok bool, assessment *Assessment, err error) {
	ev, ok, err = m.det.Feed(frame)
	return m.afterFeed(ev, ok, err)
}

// FeedPlanes is Feed for a frame already split into float32 I/Q planes
// (pi and q planes of equal length) — the native layout of both the
// wire codec and the detection pipeline — so service-layer callers
// never materialise a []complex128 frame on the hot path.
func (m *Monitor) FeedPlanes(pi, pq []float32) (ev BlinkEvent, ok bool, assessment *Assessment, err error) {
	ev, ok, err = m.det.FeedPlanes(pi, pq)
	return m.afterFeed(ev, ok, err)
}

// afterFeed is the shared post-detector half of Feed and FeedPlanes:
// vital-sign sampling from the tracked bin, then window accounting.
func (m *Monitor) afterFeed(ev BlinkEvent, ok bool, err error) (BlinkEvent, bool, *Assessment, error) {
	if err != nil {
		return BlinkEvent{}, false, nil, err
	}
	// Feed the vital-sign estimator from the tracked bin; a bin change
	// invalidates its window.
	if z, bin, sampled := m.det.CurrentSample(); sampled {
		if core.BinOf(bin) != m.vitalsBin {
			m.vitals.Reset()
			m.vitalsBin = core.BinOf(bin)
		}
		m.vitals.Push(z)
	}
	return m.ingest(ev, ok)
}

// ingest records one delivered detection result and advances the window
// clock by one frame. It is the whole of Feed's accounting, split out so
// the window semantics can be driven directly by tests.
func (m *Monitor) ingest(ev BlinkEvent, ok bool) (BlinkEvent, bool, *Assessment, error) {
	// A blink stamped before the open window ends counts in it. One
	// stamped before the window even began was delivered later than the
	// detector's documented lag bound (pathological sustained ringing):
	// its own window is closed, so it is clamped into the open one and
	// counted exactly once rather than in no window at all. A blink
	// stamped past the boundary counts once its own window opens.
	later := ok && ev.Time >= m.winEnd.Float64()
	if ok && ev.Time < m.winEnd.Float64() {
		m.tally.Add(ev.Duration)
	}
	m.frame++
	var assessment *Assessment
	for m.windowComplete(ev, ok) {
		a, aerr := m.assess()
		// assess opens the next window even when it fails, so a blink
		// stamped into that window counts there either way.
		if later && ev.Time < m.winEnd.Float64() {
			m.tally.Add(ev.Duration)
			later = false
		}
		if aerr != nil {
			return ev, ok, assessment, aerr
		}
		assessment = &a
	}
	return ev, ok, assessment, nil
}

// windowComplete reports whether every event belonging to the open
// window must have been delivered, so it can be assessed. That holds
// once the frame clock passes the boundary by the detector's delivery
// lag — or earlier, as soon as an event stamped past the boundary
// arrives: LEVD emits events in stamped order, so nothing earlier is
// still pending.
func (m *Monitor) windowComplete(ev BlinkEvent, ok bool) bool {
	if ok && ev.Time >= m.winEnd.Float64() {
		return true
	}
	return m.frame.SecondsAt(m.frameRate)-m.lagSec >= m.winEnd
}

// assess summarises the completed window [winStart, winEnd) and opens
// the next one. The next window opens before the classification runs,
// so a window whose classification fails (non-finite features) costs
// its own assessment only.
func (m *Monitor) assess() (Assessment, error) {
	end := m.winEnd
	f := m.tally.Features((end - m.winStart).Float64())
	m.winStart = end
	m.winEnd = end + m.windowSec
	m.tally = core.WindowTally{}

	a := Assessment{WindowEnd: end.Float64(), Features: f, Posterior: 0.5}
	if est, ok := m.vitals.Last(); ok {
		a.Vitals = &est
	}
	if m.model.Trained() {
		drowsy, posterior, err := m.model.Classify(f)
		if err != nil {
			return Assessment{}, err
		}
		a.Drowsy = drowsy
		a.Posterior = posterior
		a.Calibrated = true
	}
	m.mAssessments.Inc()
	if a.Drowsy {
		m.mDrowsy.Inc()
	}
	m.gBlinkRate.Set(f.BlinkRate)
	return a, nil
}

// NoteGap forwards an upstream frame loss (e.g. a transport sequence
// gap) to the detector. When the gap was too long to bridge and the
// detector discarded tracking state, the vital-sign window — which
// would otherwise silently span the hole — is invalidated too.
func (m *Monitor) NoteGap(missed uint64) {
	m.det.NoteGap(missed)
	if m.det.Health() != HealthTracking {
		m.vitals.Reset()
		m.vitalsBin = -1
	}
}

// Health reports the detector's operating state. Safe to call from any
// goroutine while Feed runs.
func (m *Monitor) Health() HealthState { return m.det.Health() }

// InputStats reports the detector's input-sanitization counters.
func (m *Monitor) InputStats() InputStats { return m.det.InputStats() }

// Detector exposes the underlying pipeline for diagnostics.
func (m *Monitor) Detector() *Detector { return m.det }
