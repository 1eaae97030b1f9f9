package core

// Slow-time quantities come in three incompatible dimensions — frame
// counts, wall-clock seconds, and range-bin indices — and PR 6's
// window-drift bug was a frame count standing in for seconds with
// nothing in the types to object. These named unit types make the
// dimension part of the value; the timeunit analyzer forbids crossing
// them except through the rate-carrying helpers below and admits raw
// values only through the //blinkradar:convert constructors.

// Seconds is wall-clock slow time.
//
//blinkradar:unit seconds
type Seconds float64

// Frames counts slow-time radar frames.
//
//blinkradar:unit frames
type Frames int

// Bin indexes a range (fast-time) bin.
//
//blinkradar:unit bin
type Bin int

// SecondsOf admits a raw wall-clock value at an API boundary.
//
//blinkradar:convert
func SecondsOf(v float64) Seconds { return Seconds(v) }

// BinOf admits a raw bin index at an API boundary.
//
//blinkradar:convert
func BinOf(n int) Bin { return Bin(n) }

// Float64 escapes to a raw wall-clock value at an API boundary.
func (s Seconds) Float64() float64 { return float64(s) }

// Int escapes to a raw frame count at an API boundary.
func (f Frames) Int() int { return int(f) }

// Int escapes to a raw bin index at an API boundary.
func (b Bin) Int() int { return int(b) }

// SecondsAt converts a frame count to wall-clock time at rate frames
// per second — the only sanctioned frames→seconds crossing.
func (f Frames) SecondsAt(rate float64) Seconds {
	if rate <= 0 {
		return 0
	}
	return Seconds(float64(f) / rate)
}

// FramesAt converts wall-clock time to a whole frame count at rate
// frames per second, truncating toward zero — the only sanctioned
// seconds→frames crossing.
func (s Seconds) FramesAt(rate float64) Frames {
	return Frames(float64(s) * rate)
}
