package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// batchMedianRef is the reference the streaming structure must match
// exactly: sort a copy of the window, take the upper median. This is
// the same order statistic the detector's old copy+selection-sort
// helper returned.
func batchMedianRef(window []float64) float64 {
	if len(window) == 0 {
		return 0
	}
	cp := make([]float64, len(window))
	copy(cp, window)
	sort.Float64s(cp)
	return cp[len(cp)/2]
}

// driveMedian pushes stream through a StreamingMedian and a plain
// window slice side by side, checking the median, the eviction report,
// the count and the sorted view after every push. Values are canonicalised the
// same way Push canonicalises them.
func driveMedian(t *testing.T, stream []float64, capacity int) {
	t.Helper()
	m, err := NewStreamingMedian(capacity)
	if err != nil {
		t.Fatal(err)
	}
	window := make([]float64, 0, capacity)
	for i, v := range stream {
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		wantEvict := len(window) == capacity
		if wantEvict {
			window = window[:copy(window, window[1:])]
		}
		window = append(window, v)
		if got := m.Push(v); got != wantEvict {
			t.Fatalf("push %d: evicted = %v, want %v", i, got, wantEvict)
		}
		if m.Count() != len(window) {
			t.Fatalf("push %d: count %d, window %d", i, m.Count(), len(window))
		}
		// Exact equality: the structure moves values, it never
		// recomputes them, so there is no tolerance to grant.
		sorted := append([]float64(nil), window...)
		sort.Float64s(sorted)
		for j, v := range m.Sorted() {
			if v != sorted[j] {
				t.Fatalf("push %d: sorted view %v, want %v", i, m.Sorted(), sorted)
			}
		}
		got, want := m.Median(), batchMedianRef(window)
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("push %d: median %g, batch reference %g (window %v)", i, got, want, window)
		}
	}
}

func TestStreamingMedianMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	stream := make([]float64, 500)
	for i := range stream {
		stream[i] = rng.NormFloat64() * 10
	}
	for _, capacity := range []int{1, 2, 3, 4, 5, 17, 51} {
		driveMedian(t, stream, capacity)
	}
}

func TestStreamingMedianDuplicates(t *testing.T) {
	// Heavy ties exercise the equal-run paths of insert and remove.
	rng := rand.New(rand.NewSource(22))
	stream := make([]float64, 400)
	for i := range stream {
		stream[i] = float64(rng.Intn(4))
	}
	for _, capacity := range []int{2, 5, 16} {
		driveMedian(t, stream, capacity)
	}
}

func TestStreamingMedianNonFinite(t *testing.T) {
	stream := []float64{1, math.NaN(), math.Inf(1), 2, math.Inf(-1), math.NaN(), 3, 4, 5, 6, 7}
	for _, capacity := range []int{3, 5} {
		driveMedian(t, stream, capacity)
	}
}

func TestStreamingMedianReset(t *testing.T) {
	m, err := NewStreamingMedian(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		m.Push(float64(i))
	}
	m.Reset()
	if m.Count() != 0 || len(m.Sorted()) != 0 || m.Median() != 0 {
		t.Fatalf("reset left count=%d sorted=%v median=%g", m.Count(), m.Sorted(), m.Median())
	}
	if m.Push(9) {
		t.Fatal("first push after reset reported an eviction")
	}
	if m.Median() != 9 {
		t.Fatalf("median %g after single push", m.Median())
	}
	if len(m.ring) != 4 {
		t.Fatalf("capacity %d changed by reset", len(m.ring))
	}
}

func TestStreamingMedianBadCapacity(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := NewStreamingMedian(capacity); err == nil {
			t.Fatalf("capacity %d accepted", capacity)
		}
	}
}

// FuzzSlidingMedian drives the streaming median with fuzz-chosen
// values (including NaN and Inf bit patterns) and window capacities,
// requiring exact agreement with the sort-a-copy batch reference after
// every push.
func FuzzSlidingMedian(f *testing.F) {
	seed := make([]byte, 0, 12*8)
	for _, v := range []float64{0, 1, -1, 2, 2, 2, math.Inf(1), math.NaN(), -0.5, 3, 1e12, -1e12} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(5))
	f.Add(seed, uint8(1))
	f.Add([]byte{}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, capSeed uint8) {
		capacity := 1 + int(capSeed)%64
		n := len(data) / 8
		if n > 4096 {
			n = 4096
		}
		stream := make([]float64, n)
		for i := range stream {
			stream[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		}
		driveMedian(t, stream, capacity)
	})
}
