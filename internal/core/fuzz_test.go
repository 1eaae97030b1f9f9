package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzLEVD drives the blink detector with arbitrary distance waveforms,
// NaN samples included, and checks its structural invariants: it never
// panics, event times are non-negative and non-decreasing, durations
// stay inside the physiological clamp, and confidence always exceeds
// one (an event fires only above threshold).
func FuzzLEVD(f *testing.F) {
	ramp := make([]byte, 0, 512*8)
	for i := 0; i < 512; i++ {
		v := 0.001 * math.Sin(float64(i)/7)
		if i%100 < 8 {
			v += 0.02 // blink-like bumps
		}
		ramp = binary.LittleEndian.AppendUint64(ramp, math.Float64bits(v))
	}
	f.Add(ramp)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}) // +Inf sample
	// One NaN sample, then enough finite ones to evict it from the
	// detrend window.
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	for i := 0; i < 40; i++ {
		nan = binary.LittleEndian.AppendUint64(nan, math.Float64bits(0.001*float64(i%5)))
	}
	f.Add(nan)
	f.Fuzz(func(t *testing.T, data []byte) {
		const fps = 100.0
		l, err := NewLEVD(DefaultConfig(), fps)
		if err != nil {
			t.Fatal(err)
		}
		// 2048 samples is 20 s at the test fps — enough to cover sigma
		// priming, detection and refractory. Longer inputs hit the
		// detector's worst case (sigma pinned at zero re-sorts the full
		// MAD window every frame) and stall fuzzing throughput.
		n := len(data) / 8
		if n > 2048 {
			n = 2048
		}
		lastTime := math.Inf(-1)
		checkEvent := func(ev BlinkEvent) {
			if ev.Time < 0 {
				t.Fatalf("event time %g is negative", ev.Time)
			}
			if ev.Time < lastTime {
				t.Fatalf("event time %g precedes previous event %g", ev.Time, lastTime)
			}
			lastTime = ev.Time
			if ev.Duration < 0.075 || ev.Duration > 1.5 {
				t.Fatalf("duration %g outside physiological clamp [0.075, 1.5]", ev.Duration)
			}
			if !(ev.Confidence > 1) && !math.IsNaN(ev.Confidence) {
				t.Fatalf("confidence %g not above 1", ev.Confidence)
			}
		}
		for i := 0; i < n; i++ {
			d := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			if math.IsInf(d, 0) {
				// The tracker feeds the detector |z - center|, which is
				// never infinite; clamp rather than skip so the stream
				// keeps exercising state transitions.
				d = 0
			}
			if ev, ok := l.Push(d, i); ok {
				checkEvent(ev)
			}
		}
		if ev, ok := l.Flush(); ok {
			checkEvent(ev)
		}
	})
}
