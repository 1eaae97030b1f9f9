package chaos

import (
	"math"
	"strings"
	"testing"

	"blinkradar/internal/transport"
)

// mkFrame builds a small test frame with recognisable bin values.
func mkFrame(seq uint64, bins int) transport.Frame {
	f := transport.Frame{Seq: seq, TimestampMicros: seq * 40000, Bins: make([]complex128, bins)}
	for i := range f.Bins {
		f.Bins[i] = complex(float64(seq), float64(i))
	}
	return f
}

// run pushes n frames through an injector and returns the emitted seqs.
func run(t *testing.T, cfg Config, n int) []uint64 {
	t.Helper()
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < n; i++ {
		for _, f := range inj.Apply(mkFrame(uint64(i), 16)) {
			seqs = append(seqs, f.Seq)
		}
	}
	for _, f := range inj.Flush() {
		seqs = append(seqs, f.Seq)
	}
	return seqs
}

func TestInjectorDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 42
	cfg.DropRate = 0.1
	cfg.DupProb = 0.05
	cfg.ReorderProb = 0.05
	cfg.JitterMicros = 1000
	a := run(t, cfg, 2000)
	b := run(t, cfg, 2000)
	if len(a) != len(b) {
		t.Fatalf("same seed, different emit counts: %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, sequences diverge at %d: %d != %d", i, a[i], b[i])
		}
	}
	cfg.Seed = 43
	c := run(t, cfg, 2000)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestInjectorDropRateAndAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.DropRate = 0.2
	cfg.MeanBurstLen = 4
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	emitted := 0
	for i := 0; i < n; i++ {
		emitted += len(inj.Apply(mkFrame(uint64(i), 8)))
	}
	st := inj.Stats()
	if st.Input != n || st.Emitted != uint64(emitted) || st.Dropped != n-uint64(emitted) {
		t.Fatalf("inconsistent accounting: %+v vs emitted %d", st, emitted)
	}
	rate := float64(st.Dropped) / n
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("stationary drop rate %.3f far from configured 0.2", rate)
	}
}

func TestInjectorFaultWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.DropRate = 0.9
	cfg.MeanBurstLen = 5
	cfg.StartAfter = 100
	cfg.StopAfter = 200
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		out := inj.Apply(mkFrame(uint64(i), 8))
		inWindow := i >= 100 && i < 200
		if !inWindow && len(out) != 1 {
			t.Fatalf("frame %d outside fault window was not passed through", i)
		}
	}
	if st := inj.Stats(); st.Dropped == 0 {
		t.Fatal("no drops inside the fault window at 90% drop rate")
	}
}

func TestInjectorPoisonDoesNotMutateInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.PoisonProb = 1
	cfg.PoisonFrac = 1
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := mkFrame(9, 16)
	out := inj.Apply(in)
	if len(out) != 1 {
		t.Fatalf("want 1 frame, got %d", len(out))
	}
	for i, c := range in.Bins {
		if math.IsNaN(real(c)) || math.IsInf(imag(c), 0) {
			t.Fatalf("input frame bin %d was mutated: %v", i, c)
		}
	}
	poisoned := 0
	for _, c := range out[0].Bins {
		if math.IsNaN(real(c)) || math.IsNaN(imag(c)) || math.IsInf(real(c), 0) || math.IsInf(imag(c), 0) {
			poisoned++
		}
	}
	if poisoned == 0 {
		t.Fatal("poison=1/frac=1 produced no non-finite bins")
	}
}

func TestInjectorReorderSwapsAdjacent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.ReorderProb = 1
	inj, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for i := 0; i < 4; i++ {
		for _, f := range inj.Apply(mkFrame(uint64(i), 4)) {
			seqs = append(seqs, f.Seq)
		}
	}
	for _, f := range inj.Flush() {
		seqs = append(seqs, f.Seq)
	}
	// With certainty-reorder every even frame is held and released
	// after its successor: 0,1,2,3 -> 1,0,3,2.
	want := []uint64{1, 0, 3, 2}
	if len(seqs) != len(want) {
		t.Fatalf("want %v, got %v", want, seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("want %v, got %v", want, seqs)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "seed=7,drop=0.05,burst=4,dup=0.01,reorder=0.02,jitter=2000,nan=0.02,nanfrac=0.2,sat=0.01,satval=500,start=100,stop=2000"
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 7 || cfg.DropRate != 0.05 || cfg.MeanBurstLen != 4 ||
		cfg.DupProb != 0.01 || cfg.ReorderProb != 0.02 || cfg.JitterMicros != 2000 ||
		cfg.PoisonProb != 0.02 || cfg.PoisonFrac != 0.2 || cfg.SaturateProb != 0.01 ||
		cfg.SaturateValue != 500 || cfg.StartAfter != 100 || cfg.StopAfter != 2000 {
		t.Fatalf("spec parsed wrong: %+v", cfg)
	}
	back, err := ParseSpec(cfg.Spec())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", cfg.Spec(), err)
	}
	if back != cfg {
		t.Fatalf("round trip changed config:\n%+v\n%+v", cfg, back)
	}
	if empty, err := ParseSpec(""); err != nil || empty.Enabled() {
		t.Fatalf("empty spec must be a no-op config, got %+v err %v", empty, err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",
		"drop",
		"drop=1.5",
		"binchange=10",
		"binchange=10:0",
		"stop=5,start=10",
		"seed=abc",
	} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("spec %q should not parse", spec)
		}
	}
}

// TestParseSpecRejectsBinChange pins that no fault changes a frame's
// width: the stream hello fixes the geometry, so binchange is an
// unknown key, not a fault the stream readers must survive.
func TestParseSpecRejectsBinChange(t *testing.T) {
	_, err := ParseSpec("binchange=10:32")
	if err == nil || !strings.Contains(err.Error(), "unknown spec key") {
		t.Fatalf("ParseSpec(binchange=10:32) = %v, want an unknown-key error", err)
	}
}
