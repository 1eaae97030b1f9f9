// Command bench is the bytes-to-blink benchmark: it simulates a
// wire-encoded corpus of driver captures from a seed, drives the
// production transport, ingest, session, blinkradar, core and vitals
// code through one workload, checks every blink event against a
// reference Monitor, and prints one JSON result line.
//
//	go run . --workload fleet-paced --seed 1 --seconds 45 --trace 0
//
// Workloads: fleet-paced (512 sessions at 25 fps, open loop),
// fleet-arrivals (the same fleet while 128 of its drivers attach during
// the run), replay-fresh and replay-saturate (2 streams fed flat out,
// closed loop, a new or a reset Monitor per capture) and
// reconnect-churn (2 connection loops over net.Pipe, closed loop).
// --trace 1 prints per-layer metrics and a table that accounts for the
// workload's CPU per frame, and writes every span to --spans.
// README.md beside this file explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metricDef is one reported metric and its unit; the lists mirror
// BENCHMARK.json, which the self-test checks.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_frame", "us"},
	{"heap_kib_per_session", "KiB"},
}

var perLayer = []metricDef{
	{"transport.decode_us", "us"},
	{"transport.wire_bytes_per_frame", "bytes"},
	{"ingest.conn_ms", "ms"},
	{"session.submit_us", "us"},
	{"session.attach_us", "us"},
	{"session.detach_us", "us"},
	{"session.pool_hit_frac", "frac"},
	{"session.worker_cpu_us_per_frame", "us"},
	{"session.overhead_us_per_frame", "us"},
	{"session.backlog_frames", "frames"},
	{"session.queue_wait_ms", "ms"},
	{"session.dropped_frames", "count"},
	{"blinkradar.monitor_feed_us", "us"},
	{"blinkradar.monitor_post_us", "us"},
	{"vitals.push_us_per_frame", "us"},
	{"core.feed_us", "us"},
	{"core.reselect_us", "us"},
	{"core.reselect_share", "frac"},
	{"core.coldstart_us", "us"},
	{"core.steady_us", "us"},
	{"core.preprocess_us", "us"},
	{"core.stage_preprocess_us", "us"},
	{"core.stage_select_us", "us"},
	{"core.stage_track_us", "us"},
	{"core.registry_overhead_us", "us"},
	{"runtime.alloc_bytes_per_frame", "bytes"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.sched_latency_p99_us", "us"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.cpu_us_per_frame", "us"},
	{"trace.cpu_us_per_frame", "us"},
	{"trace.overhead_us_per_frame", "us"},
	{"trace.remainder_us_per_frame", "us"},
	{"trace.blink_events", "count"},
}

// Workload shapes that do not vary: two flat-out replay streams, two
// connection loops, 150-frame connections with one 5-frame gap.
const (
	replayStreams = 2
	churnLoops    = 2
	churnFrames   = 150
	churnGap      = 5
)

// config sizes one run. defaultConfig is the benchmark; the self-test
// shrinks it.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string // trace output path

	captures   int     // corpus size
	captureSec float64 // seconds per capture

	fleetSessions, fleetWarm, fleetSetups     int
	fleetArrivals                             int // of fleetSessions, on fleet-arrivals
	replaySetups                              int
	churnScripts, churnWarmConns, churnSetups int

	fleetProbeScripts int // fleet scripts the direct-feed probe replays
	probeConns        int // connections the ingest probe opens
	attachCycles      int // attach/detach cycles of the session probe
	probeSubmits      int // frames per cycle of the session probe
	perturb           bool
	out               io.Writer
}

func defaultConfig() config {
	return config{
		captures:          6,
		captureSec:        300,
		fleetSessions:     512,
		fleetWarm:         850, // past cold start (50) and the 750-sample vitals window
		fleetSetups:       3,
		fleetArrivals:     128,
		replaySetups:      5,
		churnScripts:      64,
		churnWarmConns:    64,
		churnSetups:       5,
		fleetProbeScripts: 64,
		probeConns:        32,
		attachCycles:      512,
		probeSubmits:      4,
		out:               os.Stdout,
	}
}

// result is one run's verdict and metrics.
type result struct {
	attempted, failed int
	frames, events    int
	latP99            float64 // ms, printed with its event count but not bounded
	gcCycles          uint64  // collections during the measured phase
	metrics           map[string]float64
	fingerprint       string
	notes             []string
	table             []tableRow
	probes            *result // failures seen by the traced run's probes
}

func (r *result) note(s string) {
	if len(r.notes) < 8 {
		r.notes = append(r.notes, s)
	}
}

// fail counts one failed operation and keeps its description.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.note(fmt.Sprintf(format, args...))
}

// divergent counts a stream's events that differ from its reference:
// events the reference does not have plus reference events never seen.
func (r *result) divergent(id string, diverged, matched, want int) {
	if n := diverged + want - matched; n > 0 {
		r.failed += n
		r.note(fmt.Sprintf("%s: %d events not in the reference, %d of %d reference events missing", id, diverged, want-matched, want))
	}
}

type tableRow struct {
	layer string
	us    float64
	note  string
}

var workloads = map[string]func(*config, *corpus, *result) error{
	"fleet-paced": func(cfg *config, c *corpus, res *result) error {
		return runFleet(cfg, c, res, false)
	},
	"fleet-arrivals": func(cfg *config, c *corpus, res *result) error {
		return runFleet(cfg, c, res, true)
	},
	"replay-saturate": func(cfg *config, c *corpus, res *result) error {
		return runReplay(cfg, c, res, false)
	},
	"replay-fresh": func(cfg *config, c *corpus, res *result) error {
		return runReplay(cfg, c, res, true)
	},
	"reconnect-churn": runChurn,
}

func run(cfg *config) (*result, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	c, err := buildCorpus(cfg.seed, cfg.captures, cfg.captureSec)
	if err != nil {
		return nil, err
	}
	res := &result{metrics: make(map[string]float64)}
	if err := fn(cfg, c, res); err != nil {
		return nil, err
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("%s: no operations were attempted", cfg.workload)
	}
	return res, nil
}

// report prints the fingerprint line, the per-layer table (traced runs)
// and, last, the JSON result line.
func report(cfg *config, res *result) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", cfg.workload, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	info := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"corpus_sha256": res.fingerprint, "frames": res.frames, "blink_events": res.events,
	}
	if !cfg.trace {
		info["frames_per_s"] = res.metrics["frames_per_s"]
		info["blink_latency_p50_ms"] = res.metrics["blink_latency_p50_ms"]
		info["blink_latency_p99_ms"] = res.latP99
		info["gc_cycles"] = res.gcCycles
	}
	if len(res.notes) > 0 {
		info["failures"] = res.notes
	}
	if notes := res.probeNotes(); notes != nil {
		info["probe_failures"] = notes
	}
	if err := writeJSON(cfg.out, info); err != nil {
		return err
	}
	if cfg.trace {
		printTable(cfg.out, cfg.workload, res.table)
	}
	return writeJSON(cfg.out, map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func printTable(w io.Writer, workload string, rows []tableRow) {
	fmt.Fprintf(w, "per-layer CPU per frame, %s (self time, us/frame):\n", workload)
	var sum float64
	for _, r := range rows {
		sum += r.us
		fmt.Fprintf(w, "  %-34s %10.3f  %s\n", r.layer, r.us, r.note)
	}
	fmt.Fprintf(w, "  %-34s %10.3f\n", "total (= trace.cpu_us_per_frame)", sum)
}

// watchdog bounds one run; a 45-s fleet run takes about 55 s.
const watchdog = 170 * time.Second

func main() {
	cfg := defaultConfig()
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "fleet-paced, fleet-arrivals, replay-fresh, replay-saturate or reconnect-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same corpus and scripts")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>.tsv)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.trace && cfg.spans == "" {
		cfg.spans = fmt.Sprintf(".bench_build/spans/%s.tsv", cfg.workload)
	}
	// A run that cannot finish in time must not hang its caller: exit
	// without a result.
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", cfg.workload, watchdog)
		os.Exit(1)
	})
	res, err := run(&cfg)
	if err == nil {
		err = report(&cfg, res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
