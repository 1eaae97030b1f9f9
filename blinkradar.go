// Package blinkradar is a full reproduction of "BlinkRadar:
// Non-Intrusive Driver Eye-Blink Detection with UWB Radar" (ICDCS
// 2022): a contact-free, privacy-preserving driver eye-blink and
// drowsiness monitor built on impulse-radio ultra-wideband radar.
//
// The package exposes three layers:
//
//   - Simulation: a physics-level IR-UWB substrate (pulse, multipath
//     channel, I/Q receiver) driven by physiological models (blink
//     kinematics, respiration, ballistocardiographic head motion) and a
//     vehicle environment (roads, vibration, cabin clutter). Generate
//     produces labelled captures; in a real deployment the same frame
//     matrices would come from the radar over the transport package's
//     TCP stream.
//   - Detection: the paper's pipeline — preprocessing, variance-based
//     eye-bin identification, Pratt-fit viewing-position tracking, and
//     LEVD blink detection — via Detector (streaming) or Detect
//     (offline).
//   - Drowsiness: per-driver calibration and classification from blink
//     rate and duration over one-minute windows via DrowsinessModel.
//
// Quick start:
//
//	capture, err := blinkradar.Generate(blinkradar.DefaultSpec())
//	if err != nil { ... }
//	events, _, err := blinkradar.Detect(blinkradar.DefaultConfig(), capture.Frames)
//
// Everything is deterministic given the scenario seed; see the examples
// directory and DESIGN.md for the architecture and the paper mapping.
package blinkradar

import (
	"blinkradar/internal/core"
	"blinkradar/internal/eval"
	"blinkradar/internal/obs"
	"blinkradar/internal/physio"
	"blinkradar/internal/rf"
	"blinkradar/internal/scenario"
	"blinkradar/internal/vehicle"
	"blinkradar/internal/vitals"
)

// Radar and capture types.
type (
	// Pulse is the transmitted IR-UWB impulse (Eq. 1-3).
	Pulse = rf.Pulse
	// ChannelConfig parameterises the simulated radio.
	ChannelConfig = rf.ChannelConfig
	// FrameMatrix is the radar data product: complex range profiles
	// over slow time.
	FrameMatrix = rf.FrameMatrix
	// Reflector is a simulated radar target.
	Reflector = rf.Reflector
	// StaticReflector is a fixed clutter target.
	StaticReflector = rf.StaticReflector
	// FuncReflector adapts a closure to Reflector.
	FuncReflector = rf.FuncReflector
	// Channel renders reflectors into frame matrices.
	Channel = rf.Channel
)

// Scenario types.
type (
	// Spec describes one synthetic capture.
	Spec = scenario.Spec
	// Capture is a labelled synthetic recording.
	Capture = scenario.Capture
	// Environment selects lab versus driving conditions.
	Environment = scenario.Environment
	// Subject is a simulated participant.
	Subject = physio.Subject
	// Blink is a ground-truth blink event.
	Blink = physio.Blink
	// BlinkStats parameterises the blink process.
	BlinkStats = physio.BlinkStats
	// State is the driver's alertness state.
	State = physio.State
	// Glasses is the eyewear condition.
	Glasses = physio.Glasses
	// RoadType is the road/traffic class.
	RoadType = vehicle.RoadType
)

// Detection types.
type (
	// Config parameterises the detection pipeline.
	Config = core.Config
	// Detector is the streaming detection pipeline.
	Detector = core.Detector
	// BlinkEvent is a detected blink.
	BlinkEvent = core.BlinkEvent
	// WindowFeatures summarises blinks over a classification window.
	WindowFeatures = core.WindowFeatures
	// DrowsinessModel is the per-driver drowsiness classifier.
	DrowsinessModel = core.DrowsinessModel
	// MatchResult is the detection-vs-truth evaluation outcome.
	MatchResult = eval.MatchResult
	// HealthState is the detector's coarse operating condition.
	HealthState = core.HealthState
	// InputStats summarises input sanitization and gap handling.
	InputStats = core.InputStats
)

// Detector health states (see core.HealthState).
const (
	// HealthAcquiring is the initial cold start.
	HealthAcquiring = core.HealthAcquiring
	// HealthTracking is normal operation.
	HealthTracking = core.HealthTracking
	// HealthReacquiring is the post-gap cold-start re-run.
	HealthReacquiring = core.HealthReacquiring
	// HealthDegraded means the input stream is currently unusable.
	HealthDegraded = core.HealthDegraded
)

// Alertness states.
const (
	// Awake is a vigilant driver.
	Awake = physio.Awake
	// Drowsy is a fatigued driver.
	Drowsy = physio.Drowsy
)

// Environments.
const (
	// Lab is the static feasibility setup.
	Lab = scenario.Lab
	// Driving is the on-road setup.
	Driving = scenario.Driving
)

// Eyewear conditions (Fig. 16a).
const (
	// NoGlasses is the bare-eye condition.
	NoGlasses = physio.NoGlasses
	// MyopiaGlasses are clear corrective lenses.
	MyopiaGlasses = physio.MyopiaGlasses
	// Sunglasses are tinted lenses.
	Sunglasses = physio.Sunglasses
)

// Road classes (Fig. 16b).
const (
	// SmoothHighway is a smooth road with no manoeuvres.
	SmoothHighway = vehicle.SmoothHighway
	// UrbanRoad has mild roughness and occasional manoeuvres.
	UrbanRoad = vehicle.UrbanRoad
	// ManoeuvreHeavy includes turns, roundabouts and U-turns.
	ManoeuvreHeavy = vehicle.ManoeuvreHeavy
	// BumpyRoad is a rough surface with sustained vibration.
	BumpyRoad = vehicle.BumpyRoad
)

// Simulation entry points.
var (
	// DefaultSpec returns a 60 s awake lab capture at 0.4 m.
	DefaultSpec = scenario.DefaultSpec
	// Generate renders the capture described by a Spec.
	Generate = scenario.Generate
	// NewSubject deterministically creates participant profiles.
	NewSubject = physio.NewSubject
	// Roster creates participants 1..n.
	Roster = physio.Roster
	// NewPulse returns the paper's 7.3 GHz / 1.4 GHz pulse.
	NewPulse = rf.NewPulse
	// DefaultChannelConfig returns the paper's radio configuration.
	DefaultChannelConfig = rf.DefaultChannelConfig
	// NewChannel constructs a multipath rendering channel.
	NewChannel = rf.NewChannel
)

// Detection entry points.
var (
	// DefaultConfig returns the paper-faithful pipeline configuration.
	DefaultConfig = core.DefaultConfig
	// NewDetector builds a streaming detector.
	NewDetector = core.NewDetector
	// Detect runs the pipeline over a recorded capture.
	Detect = core.Detect
	// ExtractWindows slices detections into classification windows.
	ExtractWindows = core.ExtractWindows
)

// Vital-sign estimation (the embedded interference, made useful).
type (
	// VitalsEstimate is a respiration/heart-rate reading.
	VitalsEstimate = vitals.Estimate
	// VitalsMonitor is the streaming vital-sign estimator.
	VitalsMonitor = vitals.Monitor
	// RangeDopplerMap is the classic 2-D radar product of Section IV-A.
	RangeDopplerMap = rf.RangeDopplerMap
)

// Vital-sign and range-Doppler entry points.
var (
	// EstimateVitals analyses a bin's slow-time I/Q series.
	EstimateVitals = vitals.EstimateFromSeries
	// NewVitalsMonitor builds a streaming estimator.
	NewVitalsMonitor = vitals.NewMonitor
	// ComputeRangeDoppler builds a range-Doppler map from frames.
	ComputeRangeDoppler = rf.ComputeRangeDoppler
)

// Evaluation entry points.
var (
	// Match pairs detections with ground truth.
	Match = eval.Match
	// TrimWarmup drops ground truth inside the pipeline cold start.
	TrimWarmup = eval.TrimWarmup
)

// DefaultWarmup is the scoring exclusion window in seconds.
const DefaultWarmup = eval.DefaultWarmup

// Observability types: attach a MetricsRegistry to a Monitor or
// Detector via SetRegistry and export it through a MetricsAdmin (or
// scrape Snapshot directly).
type (
	// MetricsRegistry holds named atomic counters, gauges and
	// histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time JSON-marshalable view.
	MetricsSnapshot = obs.Snapshot
	// MetricsAdmin serves /metrics, /healthz and pprof over HTTP.
	MetricsAdmin = obs.Admin
)

// Observability entry points.
var (
	// NewMetricsRegistry creates an empty metrics registry.
	NewMetricsRegistry = obs.NewRegistry
	// NewMetricsAdmin builds the admin HTTP surface over a registry.
	NewMetricsAdmin = obs.NewAdmin
)
