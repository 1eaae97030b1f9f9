package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// processCPU is the user+sys CPU of every thread of the process.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes the collector
// marked live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rtSnap is a runtime/metrics snapshot taken at a phase boundary.
type rtSnap struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	busyCPU    float64
	sched      *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	h := s[4].Value.Float64Histogram()
	cp := &metrics.Float64Histogram{
		Counts:  append([]uint64(nil), h.Counts...),
		Buckets: h.Buckets,
	}
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		gcCycles:   s[5].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
		sched:      cp,
	}
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	allocBytes   uint64
	gcCycles     uint64
	gcFrac       float64 // GC share of busy CPU, in the runtime's own accounting
	schedP99Secs float64
}

func runtimeDelta(a, b rtSnap) rtDelta {
	d := rtDelta{allocBytes: b.allocBytes - a.allocBytes, gcCycles: b.gcCycles - a.gcCycles}
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		d.gcFrac = (b.gcCPU - a.gcCPU) / busy
	}
	counts := make([]uint64, len(b.sched.Counts))
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
	}
	d.schedP99Secs = histQuantile(counts, b.sched.Buckets, 0.99)
	return d
}

// histQuantile interpolates the q-quantile of a runtime/metrics
// histogram linearly within the bucket that holds it.
func histQuantile(counts []uint64, bounds []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bounds[i], bounds[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return bounds[len(bounds)-1]
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func mean(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3 // µs
}

func usPer(d time.Duration, frames int) float64 {
	if frames == 0 {
		return 0
	}
	return float64(d) / 1e3 / float64(frames)
}
