// Package chaos provides seeded, deterministic fault injection for the
// blinkradar frame stream. Two fault surfaces are covered:
//
//   - Injector is frame-level middleware — bursty drops (Gilbert–
//     Elliott), duplicates, reordering, timestamp jitter, and
//     non-finite and saturated bins — installed as a transport.Server
//     frame hook (cmd/radard) or applied to a recorded capture
//     (cmd/radarsim). No fault changes a frame's width: the stream
//     hello fixes the geometry, and only a new hello changes it.
//   - ConnFaults/WrapListener corrupt, reset, and stall the byte
//     stream underneath the codec, exercising decoder resync, client
//     read timeouts, and reconnect logic.
//
// Every decision is drawn from a rand.Rand seeded by the caller: equal
// seeds produce equal fault sequences, so integration tests can assert
// exact loss accounting rather than statistical bounds.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"blinkradar/internal/transport"
)

// Config parameterises an Injector. The zero value injects nothing;
// DefaultConfig fills the secondary knobs (burst length, poison
// fraction, saturation value) that only matter once their primary rate
// is non-zero.
type Config struct {
	// Seed drives every random decision. Equal seeds give equal fault
	// sequences over equal inputs.
	Seed int64
	// DropRate is the stationary fraction of frames dropped by the
	// Gilbert–Elliott burst-loss chain, in [0, 1).
	DropRate float64
	// MeanBurstLen is the mean drop-burst length in frames (>= 1).
	MeanBurstLen float64
	// DupProb is the per-frame probability of emitting the frame twice.
	DupProb float64
	// ReorderProb is the per-frame probability of holding a frame back
	// one slot, swapping it with its successor.
	ReorderProb float64
	// JitterMicros adds uniform ±JitterMicros noise to each timestamp.
	JitterMicros uint64
	// PoisonProb is the per-frame probability of writing non-finite
	// (NaN/±Inf) values into a PoisonFrac fraction of the bins.
	PoisonProb float64
	// PoisonFrac is the fraction of bins poisoned in a poisoned frame,
	// in (0, 1].
	PoisonFrac float64
	// SaturateProb is the per-frame probability of railing a PoisonFrac
	// fraction of bins to ±SaturateValue.
	SaturateProb float64
	// SaturateValue is the rail magnitude written into saturated bins.
	SaturateValue float64
	// StartAfter delays all faults until this many frames have passed.
	StartAfter int
	// StopAfter ends the fault window at this input frame (exclusive);
	// zero means the window never closes. A clean tail lets integration
	// tests assert recovery on undamaged input.
	StopAfter int
}

// DefaultConfig returns a no-fault configuration with the secondary
// knobs set to useful values.
func DefaultConfig() Config {
	return Config{
		MeanBurstLen:  3,
		PoisonFrac:    0.1,
		SaturateValue: 1e6,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.DropRate < 0 || c.DropRate >= 1:
		return fmt.Errorf("chaos: drop rate must be in [0, 1), got %g", c.DropRate)
	case c.DropRate > 0 && c.MeanBurstLen < 1:
		return fmt.Errorf("chaos: mean burst length must be at least 1, got %g", c.MeanBurstLen)
	case c.DupProb < 0 || c.DupProb > 1:
		return fmt.Errorf("chaos: dup probability must be in [0, 1], got %g", c.DupProb)
	case c.ReorderProb < 0 || c.ReorderProb > 1:
		return fmt.Errorf("chaos: reorder probability must be in [0, 1], got %g", c.ReorderProb)
	case c.PoisonProb < 0 || c.PoisonProb > 1:
		return fmt.Errorf("chaos: poison probability must be in [0, 1], got %g", c.PoisonProb)
	case c.PoisonProb > 0 && (c.PoisonFrac <= 0 || c.PoisonFrac > 1):
		return fmt.Errorf("chaos: poison fraction must be in (0, 1], got %g", c.PoisonFrac)
	case c.SaturateProb < 0 || c.SaturateProb > 1:
		return fmt.Errorf("chaos: saturate probability must be in [0, 1], got %g", c.SaturateProb)
	case c.SaturateProb > 0 && c.SaturateValue <= 0:
		return fmt.Errorf("chaos: saturate value must be positive, got %g", c.SaturateValue)
	case c.SaturateProb > 0 && (c.PoisonFrac <= 0 || c.PoisonFrac > 1):
		return fmt.Errorf("chaos: poison fraction must be in (0, 1], got %g", c.PoisonFrac)
	case c.StartAfter < 0:
		return fmt.Errorf("chaos: start frame must be non-negative, got %d", c.StartAfter)
	case c.StopAfter < 0 || (c.StopAfter > 0 && c.StopAfter <= c.StartAfter):
		return fmt.Errorf("chaos: stop frame must be 0 or beyond start (%d), got %d", c.StartAfter, c.StopAfter)
	}
	return nil
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropRate > 0 || c.DupProb > 0 || c.ReorderProb > 0 ||
		c.JitterMicros > 0 || c.PoisonProb > 0 || c.SaturateProb > 0
}

// Stats counts the injector's decisions so far.
type Stats struct {
	// Input is the number of frames offered to the injector.
	Input uint64
	// Emitted is the number of frames it released downstream.
	Emitted uint64
	// Dropped, Duplicated, Reordered, Poisoned, Saturated count the
	// individual fault applications. A held reordered frame that never
	// got a successor is counted in Dropped.
	Dropped, Duplicated, Reordered, Poisoned, Saturated uint64
}

// Injector applies the configured faults to a frame stream. It is
// stateful (burst chain, reorder hold-back) and must be driven from a
// single goroutine — the transport.Server frame hook guarantees that.
type Injector struct {
	cfg      Config
	rng      *rand.Rand
	pGB, pBG float64
	bad      bool
	idx      int
	held     *transport.Frame
	stats    Stats
	out      []transport.Frame
}

// New builds an injector. The Gilbert–Elliott chain parameters are
// derived so the stationary drop fraction equals DropRate and the mean
// bad-state sojourn equals MeanBurstLen.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed)),
		out: make([]transport.Frame, 0, 2),
	}
	if cfg.DropRate > 0 {
		inj.pBG = 1 / cfg.MeanBurstLen
		inj.pGB = cfg.DropRate * inj.pBG / (1 - cfg.DropRate)
	}
	return inj, nil
}

// Stats returns the decision counts so far. If a reordered frame is
// still held back it has not been counted anywhere yet; Flush releases
// it.
func (inj *Injector) Stats() Stats { return inj.stats }

// Apply runs one frame through the fault pipeline and returns the
// frames to emit in order (possibly none, possibly two). The returned
// slice is reused by the next call. Mutating faults copy the bins, so
// the input frame is never modified.
func (inj *Injector) Apply(f transport.Frame) []transport.Frame {
	i := inj.idx
	inj.idx++
	inj.stats.Input++
	inj.out = inj.out[:0]
	active := i >= inj.cfg.StartAfter && (inj.cfg.StopAfter == 0 || i < inj.cfg.StopAfter)
	if !active {
		return inj.emit(f)
	}
	if inj.cfg.DropRate > 0 {
		if inj.bad {
			if inj.rng.Float64() < inj.pBG {
				inj.bad = false
			}
		} else if inj.rng.Float64() < inj.pGB {
			inj.bad = true
		}
		if inj.bad {
			inj.stats.Dropped++
			return inj.out
		}
	}
	if inj.cfg.PoisonProb > 0 && inj.rng.Float64() < inj.cfg.PoisonProb {
		f = inj.poison(f)
		inj.stats.Poisoned++
	}
	if inj.cfg.SaturateProb > 0 && inj.rng.Float64() < inj.cfg.SaturateProb {
		f = inj.saturate(f)
		inj.stats.Saturated++
	}
	if inj.cfg.JitterMicros > 0 {
		f.TimestampMicros = inj.jitter(f.TimestampMicros)
	}
	if inj.cfg.ReorderProb > 0 && inj.held == nil && inj.rng.Float64() < inj.cfg.ReorderProb {
		held := f
		inj.held = &held
		return inj.out
	}
	if inj.cfg.DupProb > 0 && inj.rng.Float64() < inj.cfg.DupProb {
		inj.stats.Duplicated++
		inj.emit(f)
	}
	return inj.emit(f)
}

// Flush releases a held reordered frame at end of stream. Install it
// before closing the stream, or the held frame counts as dropped.
func (inj *Injector) Flush() []transport.Frame {
	inj.out = inj.out[:0]
	if inj.held != nil {
		inj.out = append(inj.out, *inj.held)
		inj.stats.Reordered++
		inj.stats.Emitted++
		inj.held = nil
	}
	return inj.out
}

// emit appends f (and any held predecessor, which lands after f — the
// reorder) to the output buffer.
func (inj *Injector) emit(f transport.Frame) []transport.Frame {
	inj.out = append(inj.out, f)
	inj.stats.Emitted++
	if inj.held != nil {
		inj.out = append(inj.out, *inj.held)
		inj.stats.Reordered++
		inj.stats.Emitted++
		inj.held = nil
	}
	return inj.out
}

// jitter perturbs a timestamp by up to ±JitterMicros, clamping at zero.
func (inj *Injector) jitter(t uint64) uint64 {
	j := int64(inj.cfg.JitterMicros)
	delta := inj.rng.Int63n(2*j+1) - j
	if delta < 0 && uint64(-delta) > t {
		return 0
	}
	return uint64(int64(t) + delta)
}

// poison copies the frame and writes NaN/±Inf into a PoisonFrac
// fraction of its bins.
func (inj *Injector) poison(f transport.Frame) transport.Frame {
	bins := append([]complex128(nil), f.Bins...)
	for i := range bins {
		if inj.rng.Float64() >= inj.cfg.PoisonFrac {
			continue
		}
		switch inj.rng.Intn(3) {
		case 0:
			bins[i] = complex(math.NaN(), imag(bins[i]))
		case 1:
			bins[i] = complex(real(bins[i]), math.Inf(1))
		default:
			bins[i] = complex(math.Inf(-1), math.NaN())
		}
	}
	f.Bins = bins
	return f
}

// saturate copies the frame and rails a PoisonFrac fraction of its bins
// to ±SaturateValue.
func (inj *Injector) saturate(f transport.Frame) transport.Frame {
	bins := append([]complex128(nil), f.Bins...)
	v := inj.cfg.SaturateValue
	for i := range bins {
		if inj.rng.Float64() >= inj.cfg.PoisonFrac {
			continue
		}
		if inj.rng.Intn(2) == 0 {
			bins[i] = complex(v, v)
		} else {
			bins[i] = complex(-v, -v)
		}
	}
	f.Bins = bins
	return f
}

// ParseSpec parses the compact fault-spec syntax used by the cmd flags:
// comma-separated key=value pairs.
//
//	seed=N          rng seed (default 0)
//	drop=P          stationary drop rate, [0, 1)
//	burst=L         mean drop-burst length in frames (default 3)
//	dup=P           duplicate probability
//	reorder=P       reorder probability
//	jitter=US       timestamp jitter amplitude in microseconds
//	nan=P           non-finite poison probability
//	nanfrac=F       fraction of bins hit per poisoned frame (default 0.1)
//	sat=P           saturation probability
//	satval=V        saturation rail value (default 1e6)
//	start=N         first faulted frame
//	stop=N          end of the fault window (exclusive; 0 = never)
//
// Example: "seed=7,drop=0.05,burst=4,nan=0.02,start=100,stop=2000".
// An empty spec returns DefaultConfig (no faults).
func ParseSpec(spec string) (Config, error) {
	cfg := DefaultConfig()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return Config{}, fmt.Errorf("chaos: spec entry %q is not key=value", kv)
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "drop":
			cfg.DropRate, err = strconv.ParseFloat(val, 64)
		case "burst":
			cfg.MeanBurstLen, err = strconv.ParseFloat(val, 64)
		case "dup":
			cfg.DupProb, err = strconv.ParseFloat(val, 64)
		case "reorder":
			cfg.ReorderProb, err = strconv.ParseFloat(val, 64)
		case "jitter":
			cfg.JitterMicros, err = strconv.ParseUint(val, 10, 64)
		case "nan":
			cfg.PoisonProb, err = strconv.ParseFloat(val, 64)
		case "nanfrac":
			cfg.PoisonFrac, err = strconv.ParseFloat(val, 64)
		case "sat":
			cfg.SaturateProb, err = strconv.ParseFloat(val, 64)
		case "satval":
			cfg.SaturateValue, err = strconv.ParseFloat(val, 64)
		case "start":
			cfg.StartAfter, err = strconv.Atoi(val)
		case "stop":
			cfg.StopAfter, err = strconv.Atoi(val)
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: spec %s=%s: %w", key, val, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Spec renders the configuration back into ParseSpec syntax, listing
// only the knobs that differ from DefaultConfig.
func (c Config) Spec() string {
	def := DefaultConfig()
	var parts []string
	add := func(key, val string) { parts = append(parts, key+"="+val) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	if c.Seed != def.Seed {
		add("seed", strconv.FormatInt(c.Seed, 10))
	}
	if c.DropRate != def.DropRate {
		add("drop", f(c.DropRate))
	}
	if c.MeanBurstLen != def.MeanBurstLen {
		add("burst", f(c.MeanBurstLen))
	}
	if c.DupProb != def.DupProb {
		add("dup", f(c.DupProb))
	}
	if c.ReorderProb != def.ReorderProb {
		add("reorder", f(c.ReorderProb))
	}
	if c.JitterMicros != def.JitterMicros {
		add("jitter", strconv.FormatUint(c.JitterMicros, 10))
	}
	if c.PoisonProb != def.PoisonProb {
		add("nan", f(c.PoisonProb))
	}
	if c.PoisonFrac != def.PoisonFrac {
		add("nanfrac", f(c.PoisonFrac))
	}
	if c.SaturateProb != def.SaturateProb {
		add("sat", f(c.SaturateProb))
	}
	if c.SaturateValue != def.SaturateValue {
		add("satval", f(c.SaturateValue))
	}
	if c.StartAfter != def.StartAfter {
		add("start", strconv.Itoa(c.StartAfter))
	}
	if c.StopAfter != def.StopAfter {
		add("stop", strconv.Itoa(c.StopAfter))
	}
	return strings.Join(parts, ",")
}
