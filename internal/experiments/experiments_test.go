package experiments

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blinkradar/internal/core"
	"blinkradar/internal/scenario"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{0.5, 0.9, 0.7, 1.0, 0.8})
	if s.N != 5 || s.Min != 0.5 || s.Max != 1.0 || s.Median != 0.8 {
		t.Fatalf("summary %+v", s)
	}
	if s.Mean < 0.77 || s.Mean > 0.79 {
		t.Fatalf("mean %g", s.Mean)
	}
	if empty := Summarize(nil); empty.N != 0 {
		t.Fatal("empty summary must be zero")
	}
	if !strings.Contains(s.String(), "median=0.800") {
		t.Fatalf("summary string %q", s.String())
	}
}

func TestTableFormatting(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"x", "1"}, {"yy", "22"}})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a ") {
		t.Fatalf("header %q", lines[0])
	}
}

func TestTable1Contrast(t *testing.T) {
	r, err := table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Morning) != 8 || len(r.Night) != 8 {
		t.Fatalf("participants %d/%d", len(r.Morning), len(r.Night))
	}
	var morning, night int
	for i := range r.Morning {
		morning += r.Morning[i]
		night += r.Night[i]
	}
	if night <= morning {
		t.Fatalf("drowsy total %d not above awake %d (Table I contrast)", night, morning)
	}
	if !strings.Contains(r.String(), "10:00") {
		t.Fatal("report must carry the table rows")
	}
}

func TestFig5PulseCharacteristics(t *testing.T) {
	r, err := fig5()
	if err != nil {
		t.Fatal(err)
	}
	if r.SpectrumPeakHz < 7.0e9 || r.SpectrumPeakHz > 7.6e9 {
		t.Fatalf("spectrum peak %g, want ~7.3 GHz", r.SpectrumPeakHz)
	}
	if r.BandwidthHz < 1.0e9 || r.BandwidthHz > 2.0e9 {
		t.Fatalf("bandwidth %g, want ~1.4 GHz", r.BandwidthHz)
	}
}

func TestFig6FindsFaceAndClutter(t *testing.T) {
	r, err := fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Peaks) < 2 {
		t.Fatalf("only %d profile peaks", len(r.Peaks))
	}
}

func TestFig7CascadeGains(t *testing.T) {
	r := fig7()
	if r.SNRAfterDB-r.SNRBeforeDB < 6 {
		t.Fatalf("cascade gain %.1f dB, want > 6", r.SNRAfterDB-r.SNRBeforeDB)
	}
}

func TestFig8Suppression(t *testing.T) {
	r, err := fig8()
	if err != nil {
		t.Fatal(err)
	}
	if r.SuppressionDB() < 20 {
		t.Fatalf("clutter suppression %.1f dB, want > 20", r.SuppressionDB())
	}
	if r.DynamicPowerAfter < r.DynamicPowerBefore*0.5 {
		t.Fatalf("motion signal lost: %g -> %g", r.DynamicPowerBefore, r.DynamicPowerAfter)
	}
}

func TestFig9BlinkSignature(t *testing.T) {
	r, err := fig9()
	if err != nil {
		t.Fatal(err)
	}
	// Closing and opening must move the amplitude in opposite
	// directions (Fig. 9's signature).
	if r.ClosingAmpDelta*r.OpeningAmpDelta >= 0 {
		t.Fatalf("closing %+.3f and opening %+.3f not opposite", r.ClosingAmpDelta, r.OpeningAmpDelta)
	}
	if r.PhaseDeltaRad == 0 {
		t.Fatal("no phase signature")
	}
	if len(r.Trajectory) == 0 {
		t.Fatal("no trajectory exported")
	}
}

func TestFig10Selection(t *testing.T) {
	r, err := fig10()
	if err != nil {
		t.Fatal(err)
	}
	if !r.InFaceRegion {
		t.Fatalf("selected bin %d outside the face region (eye %d)", r.SelectedBin, r.TrueEyeBin)
	}
	if r.EyeVariance < 10*r.BestNoiseVariance {
		t.Fatalf("embedded interference variance %g vs noise %g: contrast too weak", r.EyeVariance, r.BestNoiseVariance)
	}
}

func TestFig11Trace(t *testing.T) {
	r, err := fig11()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Distance) != len(r.Threshold) {
		t.Fatal("trace lengths differ")
	}
	if len(r.Detections) == 0 {
		t.Fatal("no detections in the showcase trace")
	}
}

func TestSessionSpecDeterminism(t *testing.T) {
	a := SessionSpec(3, 1, scenario.Driving, nil)
	b := SessionSpec(3, 1, scenario.Driving, nil)
	if a.Seed != b.Seed || a.Subject.ID != b.Subject.ID {
		t.Fatal("session specs must be deterministic")
	}
	c := SessionSpec(3, 2, scenario.Driving, nil)
	if a.Seed == c.Seed {
		t.Fatal("different sessions must differ in seed")
	}
}

func TestRunSessionScores(t *testing.T) {
	spec := SessionSpec(1, 0, scenario.Lab, func(s *scenario.Spec) { s.Duration = 60 })
	out, err := RunSession(spec, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Truth) == 0 {
		t.Fatal("no scored truth")
	}
	if out.Accuracy() < 0 || out.Accuracy() > 1 {
		t.Fatalf("accuracy %g out of range", out.Accuracy())
	}
}

// TestAllMatchesPinnedReport checks the experiment list against the
// headers of the pinned report without running it, so a renamed,
// reordered or dropped entry fails here and not only in the full
// report's diff.
func TestAllMatchesPinnedReport(t *testing.T) {
	text, err := os.ReadFile("../../testdata/experiments.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(text), "\n") {
		if header, ok := strings.CutPrefix(line, "=== "); ok {
			want = append(want, header)
		}
	}
	var got []string
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.Name] {
			t.Errorf("experiment name %q listed twice", e.Name)
		}
		seen[e.Name] = true
		got = append(got, e.Name+" — "+e.Desc)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("All() lists\n%s\nbut testdata/experiments.txt has\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSessionCacheEvaluatesOnce asks the cache for one key from several
// workers at once: every caller must get the one evaluation (the same
// event slice, equal to a fresh RunSession), and a different config is
// a different key.
func TestSessionCacheEvaluatesOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var c sessionCache
	spec := SessionSpec(1, 0, scenario.Lab, func(s *scenario.Spec) { s.Duration = 30 })
	cfg := core.DefaultConfig()
	got, err := runOrdered(8, func(int) (Session, error) { return c.session(spec, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Events) == 0 {
		t.Fatal("no detections; the comparison would prove nothing")
	}
	for i, s := range got {
		if &s.Events[0] != &got[0].Events[0] {
			t.Fatalf("caller %d got a second evaluation of the same key", i)
		}
	}
	fresh, err := RunSession(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], fresh) {
		t.Fatalf("cached session %+v differs from a fresh evaluation %+v", got[0], fresh)
	}
	cfg.ThresholdK = 10
	if _, err := c.session(spec, cfg); err != nil {
		t.Fatal(err)
	}
	if len(c.m) != 2 {
		t.Fatalf("%d cached sessions after two keys, want 2", len(c.m))
	}
}

func TestRunOrdered(t *testing.T) {
	// Four workers even on a one-CPU machine, so jobs overlap.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 40
	var mu sync.Mutex
	inFlight, peak := 0, 0
	order := make(chan int, n) // finish order, for the failure message
	out, err := runOrdered(n, func(i int) (int, error) {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		// Early indices take longest, so jobs finish out of index order.
		time.Sleep(time.Duration(n-i) * 200 * time.Microsecond)
		mu.Lock()
		inFlight--
		mu.Unlock()
		order <- i
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	close(order)
	var finished []int
	for i := range order {
		finished = append(finished, i)
	}
	if len(out) != n || len(finished) != n {
		t.Fatalf("%d results from %d jobs, want %d", len(out), len(finished), n)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d (finish order %v)", i, v, i*i, finished)
		}
	}
	if peak > 4 {
		t.Fatalf("%d jobs in flight, want at most GOMAXPROCS = 4", peak)
	}

	// The lowest failing index wins, even when a later failure comes
	// first.
	_, err = runOrdered(n, func(i int) (int, error) {
		switch i {
		case 3:
			time.Sleep(20 * time.Millisecond)
			return 0, errors.New("job 3")
		case 30:
			return 0, errors.New("job 30")
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 3" {
		t.Fatalf("error %v, want job 3's", err)
	}

	out, err = runOrdered(0, func(i int) (int, error) {
		return 0, fmt.Errorf("job %d ran for n = 0", i)
	})
	if err != nil || len(out) != 0 {
		t.Fatalf("n = 0: %v, %v", out, err)
	}
}
