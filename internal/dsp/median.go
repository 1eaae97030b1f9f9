package dsp

import (
	"fmt"
	"math"
)

// StreamingMedian maintains the running median of the last capacity
// values pushed, in O(log n) search + O(n) memmove per push instead of
// the O(n²) copy+selection-sort of a batch median over the same window.
// It keeps two fixed-capacity views of the window: a ring in arrival
// order (so the oldest value can be identified for eviction) and a
// sorted array maintained by binary insert/remove (so the median is a
// single index read). The window sizes used by the detector are tens of
// values, where the shifting memmoves stay within a cache line or two.
//
// Unlike the sliding-moment kernels this structure is exact by
// construction — values are moved, never re-derived arithmetically — so
// it needs no renormalization interval.
//
// NaN inputs are canonicalised to +Inf on entry: NaN is unordered and
// would corrupt the binary search invariant, while +Inf sorts to the
// top and simply biases the median upward until it falls out of the
// window — the same graceful degradation the upstream frame sanitizer
// applies. The zero value is unusable; call NewStreamingMedian.
type StreamingMedian struct {
	ring   []float64 // window in arrival order
	sorted []float64 // same values, ascending; count live entries
	pos    int       // next ring write index
	count  int       // live values in both views
}

// NewStreamingMedian returns an empty window of the given fixed
// capacity.
func NewStreamingMedian(capacity int) (*StreamingMedian, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("dsp: streaming median capacity %d, need >= 1", capacity)
	}
	return &StreamingMedian{
		ring:   make([]float64, capacity),
		sorted: make([]float64, capacity),
	}, nil
}

// Push adds v to the window, evicting the oldest value once the window
// is full. It reports whether an eviction happened — i.e. whether the
// window was already full, which callers use to gate logic that needs a
// complete window.
//
//blinkradar:hotpath
func (m *StreamingMedian) Push(v float64) bool {
	if math.IsNaN(v) {
		v = math.Inf(1)
	}
	evicted := false
	if m.count == len(m.ring) {
		m.removeSorted(m.ring[m.pos])
		evicted = true
	}
	m.ring[m.pos] = v
	m.pos++
	if m.pos == len(m.ring) {
		m.pos = 0
	}
	m.insertSorted(v)
	return evicted
}

// removeSorted deletes one occurrence of v from the sorted view. v is
// always present: it came out of the ring.
func (m *StreamingMedian) removeSorted(v float64) {
	// Hand-rolled leftmost binary search; sort.SearchFloat64s would
	// wrap the slice in a closure on the hot path.
	lo, hi := 0, m.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(m.sorted[lo:m.count-1], m.sorted[lo+1:m.count])
	m.count--
}

// insertSorted inserts v after any equal run in the sorted view.
func (m *StreamingMedian) insertSorted(v float64) {
	lo, hi := 0, m.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.sorted[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	copy(m.sorted[lo+1:m.count+1], m.sorted[lo:m.count])
	m.sorted[lo] = v
	m.count++
}

// Median returns the median of the current window: the upper median
// sorted[count/2] for an even count, matching the batch helper this
// structure replaces. An empty window yields 0.
//
//blinkradar:hotpath
func (m *StreamingMedian) Median() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sorted[m.count/2]
}

// Count returns the number of values currently in the window.
func (m *StreamingMedian) Count() int { return m.count }

// Sorted returns the window's values in ascending order, for order
// statistics beyond the median. The slice aliases the window: it is
// valid until the next Push or Reset and must not be modified.
func (m *StreamingMedian) Sorted() []float64 { return m.sorted[:m.count] }

// Reset empties the window.
func (m *StreamingMedian) Reset() {
	m.pos = 0
	m.count = 0
}
