package vitals

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzMonitorMatchesEager feeds two Monitors and the eager oracle the
// same fuzz-chosen float32 samples and Reset points. One Monitor is read
// after every push, so each update is estimated as it falls; the other
// only where the input asks, so updates wait, and a failed fit must
// estimate the update before it. Both must equal the oracle whenever
// read.
//
// The input is a list of 9-byte records: a control byte, then the
// sample's I and Q as little-endian float32. Control bit 0 resets the
// Monitors and the oracle before the sample, bit 1 reads the lazy
// Monitor after it, and bits 2-7 push the sample 1 to 64 times, so runs
// of identical samples, whose windows fail the arc fit, come cheap.
// Non-finite samples are dropped, as the frame sanitizer drops them.
func FuzzMonitorMatchesEager(f *testing.F) {
	record := func(b []byte, control byte, re, im float32) []byte {
		b = append(b, control)
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(re))
		return binary.LittleEndian.AppendUint32(b, math.Float32bits(im))
	}
	// An arc, read every 8 samples. The seeds stay short, so new inputs
	// derived from them are quick to minimize.
	var arc []byte
	for i := 0; i < 24; i++ {
		a := 0.4 * math.Sin(float64(i)/3)
		control := byte(0)
		if i%8 == 7 {
			control = 2
		}
		arc = record(arc, control, float32(1.5+1.2*math.Cos(a)), float32(-0.8+1.2*math.Sin(a)))
	}
	// A constant stretch long enough to fill a window, then the arc again
	// and a Reset.
	runs := append([]byte{}, arc[:9*16]...)
	runs = record(runs, 63<<2|2, 0.5, -0.25)
	runs = append(runs, arc[9*16:]...)
	runs = record(runs, 1|2, 0.25, 0.25)
	runs = append(runs, arc[:9*16]...)
	f.Add(arc, uint8(1), uint8(4))
	f.Add(runs, uint8(0), uint8(9))
	f.Add(runs, uint8(3), uint8(0))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, fpsSeed, everySeed uint8) {
		fps := float64(1 + fpsSeed%4)
		updateSec := float64(1+everySeed%40) / fps
		read, err := NewMonitor(fps, minWindowSec, updateSec)
		if err != nil {
			t.Skip(err)
		}
		lazy, _ := NewMonitor(fps, minWindowSec, updateSec)
		oracle := newEagerMonitor(fps, minWindowSec, updateSec)
		// A cap on pushes keeps each run, and so minimization, quick.
		for pushes := 0; len(data) >= 9 && pushes < 512; data = data[9:] {
			control := data[0]
			re := math.Float32frombits(binary.LittleEndian.Uint32(data[1:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(data[5:]))
			if math.IsNaN(float64(re)) || math.IsInf(float64(re), 0) ||
				math.IsNaN(float64(im)) || math.IsInf(float64(im), 0) {
				continue
			}
			if control&1 != 0 {
				read.Reset()
				lazy.Reset()
				oracle.reset()
			}
			z := complex(float64(re), float64(im))
			for r := 0; r <= int(control>>2); r++ {
				read.Push(z)
				lazy.Push(z)
				oracle.push(z)
				pushes++
				matchesEager(t, "read after every push", read, oracle)
			}
			if control&2 != 0 {
				matchesEager(t, "read where asked", lazy, oracle)
			}
		}
		matchesEager(t, "read at the end", lazy, oracle)
	})
}
