package core

import "math"

// InputStats summarises the input-sanitization and gap-handling stage.
// All counts are cumulative since construction.
type InputStats struct {
	// Accepted frames passed sanitization and entered the pipeline.
	Accepted uint64
	// Rejected frames were discarded whole (too many non-finite bins).
	Rejected uint64
	// RepairedBins is how many non-finite bins were patched with the
	// last good value for that bin.
	RepairedBins uint64
	// ClampedBins is how many saturated bins were clamped to
	// ±SaturationLimit.
	ClampedBins uint64
	// GapFrames is the total frames reported lost upstream via NoteGap.
	GapFrames uint64
	// GapResets is how many times tracking state was discarded because
	// a gap or reject run was too long to bridge.
	GapResets uint64
}

// InputStats returns the sanitization counters.
func (d *Detector) InputStats() InputStats { return d.in }

// finite32 reports whether v is finite. NaN survives float64→float32
// narrowing and ±Inf stays infinite, so checking the narrowed sample
// catches exactly what the complex-path sweep would — except a finite
// float64 beyond ±MaxFloat32, which narrows to Inf and is repaired as
// non-finite rather than clamped (see DESIGN.md §13).
//
//blinkradar:hotpath
func finite32(v float32) bool {
	d := float64(v)
	return !math.IsNaN(d) && !math.IsInf(d, 0)
}

// sanitizeFrame validates and repairs the raw frame's I/Q planes in
// place. Non-finite bins are patched with the last accepted value for
// that bin (zero before any frame has been accepted); when more than
// maxBadBinFrac of the frame is non-finite the frame is rejected whole.
// With SaturationLimit > 0, component magnitudes beyond the limit are
// clamped (ADC rail-out repair); a finite float64 component beyond
// ±MaxFloat32 arrives here already narrowed to Inf and is repaired
// instead. Returns false when the frame must be discarded.
//
//blinkradar:hotpath
func (d *Detector) sanitizeFrame(pi, pq []float32) bool {
	// Branchless screen first: v-v is exactly 0 for every finite v and
	// NaN for NaN/±Inf, so a NaN accumulator after the sweep means the
	// frame needs the per-bin repair scan. Clean frames — the
	// overwhelmingly common case — pay two subtract-adds per bin and no
	// data-dependent branches.
	var acc float32
	for i := range pi {
		acc += (pi[i] - pi[i]) + (pq[i] - pq[i])
	}
	bad := 0
	if acc != acc {
		for i := range pi {
			if !finite32(pi[i]) || !finite32(pq[i]) {
				bad++
			}
		}
	}
	if bad > 0 {
		if float64(bad) > maxBadBinFrac*float64(len(pi)) {
			return false
		}
		for i := range pi {
			if !finite32(pi[i]) || !finite32(pq[i]) {
				if d.haveGood {
					pi[i] = d.lastGood.I[i]
					pq[i] = d.lastGood.Q[i]
				} else {
					pi[i] = 0
					pq[i] = 0
				}
				d.in.RepairedBins++
				d.mBinsRepaired.Inc()
			}
		}
	}
	if lim := d.cfg.SaturationLimit; lim > 0 {
		lim32 := float32(lim)
		for i := range pi {
			re, im := pi[i], pq[i]
			clamped := false
			if re > lim32 {
				re, clamped = lim32, true
			} else if re < -lim32 {
				re, clamped = -lim32, true
			}
			if im > lim32 {
				im, clamped = lim32, true
			} else if im < -lim32 {
				im, clamped = -lim32, true
			}
			if clamped {
				pi[i] = re
				pq[i] = im
				d.in.ClampedBins++
				d.mBinsClamped.Inc()
			}
		}
	}
	copy(d.lastGood.I, pi)
	copy(d.lastGood.Q, pq)
	d.haveGood = true
	return true
}

// noteReject accounts one discarded frame. The frame still takes its
// slot in slow time, so events after it are stamped on the clock of
// every frame fed, the one a Monitor's windows keep; a reselection
// falling due on it runs at the next tracked frame. A reject run longer
// than maxGapFrames is an input gap like any other (the slow-time
// series has a hole), so it forces re-acquisition; a run reaching
// degradedAfterRejects flags the stream itself as unusable.
func (d *Detector) noteReject() {
	d.in.Rejected++
	d.mFramesRejected.Inc()
	d.frame++
	if d.haveBin && d.frame%d.cfg.ReselectIntervalFrames == 0 {
		d.reselectDue = true
	}
	d.consecRejects++
	if d.consecRejects == maxGapFrames+1 {
		d.reacquire()
	}
	if d.consecRejects >= degradedAfterRejects {
		d.setHealth(HealthDegraded)
	}
}

// noteAccept accounts one accepted frame and, if the detector was
// degraded, restores the appropriate working state.
func (d *Detector) noteAccept() {
	d.in.Accepted++
	if d.consecRejects == 0 {
		return
	}
	d.consecRejects = 0
	if d.Health() != HealthDegraded {
		return
	}
	switch {
	case d.haveBin:
		d.setHealth(HealthTracking)
	case d.everSelected:
		d.setHealth(HealthReacquiring)
	default:
		d.setHealth(HealthAcquiring)
	}
}

// NoteGap informs the detector that missed frames were lost upstream
// (e.g. a transport sequence gap). Gaps of at most maxGapFrames (50
// frames, 2 s at 25 fps) are bridged: the slow-time filters absorb the discontinuity. Longer gaps
// discard tracking state and re-run cold start — concatenating across a
// multi-second hole would hand the tracker and threshold estimator a
// phantom step. The background clutter estimate is deliberately kept:
// transport losses do not move the cabin.
//
// Like Feed, NoteGap must be called from the detector's owning
// goroutine.
func (d *Detector) NoteGap(missed uint64) {
	if missed == 0 {
		return
	}
	d.in.GapFrames += missed
	d.mGapFrames.Add(missed)
	if missed > uint64(maxGapFrames) {
		d.reacquire()
	}
}

// reacquire discards all slow-time state (ring, tracker, LEVD, motion
// median) while keeping the primed background estimate, and re-enters
// cold start. The next bin selection fires once ColdStartFrames clean
// frames have refilled the ring.
func (d *Detector) reacquire() {
	d.in.GapResets++
	d.mGapResets.Inc()
	d.ring.reset()
	d.tracker.Reset()
	d.levd.Reset()
	d.haveBin, d.reselectDue = false, false
	d.matured = false
	d.challenger = -1
	d.sustain = 0
	d.med.Reset()
	d.setHealth(HealthReacquiring)
}
