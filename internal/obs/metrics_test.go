package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frames_total")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter %d, want 10", c.Value())
	}
	if r.Counter("frames_total") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("depth")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge %g, want 2.5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-556.5) > 1e-9 {
		t.Fatalf("sum %g, want 556.5", h.Sum())
	}
	s := h.snapshot()
	// 0.5 and 1 land in <=1; 5 in <=10; 50 in <=100; 500 overflows.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d has %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	// Re-registering with different bounds keeps the original.
	if got := r.Histogram("latency", []float64{7}); got != h {
		t.Fatal("same name must return the same histogram")
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(float64(j))
				r.Histogram("h", DefLatencyBuckets()).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Fatalf("gauge %g, want 999 (every writer's last value)", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count %d, want 8000", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames").Add(3)
	r.Gauge("rate").Set(17.5)
	r.Histogram("lat", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["frames"] != 3 || s.Gauges["rate"] != 17.5 {
		t.Fatalf("snapshot %+v", s)
	}
	h := s.Histograms["lat"]
	if h.Count != 1 || h.Counts[1] != 1 {
		t.Fatalf("histogram snapshot %+v", h)
	}
}
