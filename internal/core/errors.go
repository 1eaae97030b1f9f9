package core

import "fmt"

// errFrameBins reports a frame/preprocessor bin-count mismatch. It lives
// outside the //blinkradar:hotpath bodies so the fmt machinery stays off
// the per-frame path; the branch only fires on caller bugs.
//
//blinkradar:coldpath
func errFrameBins(got, want int) error {
	return fmt.Errorf("core: frame has %d bins, preprocessor configured for %d", got, want)
}

// maxFrameRate is the highest frame rate, in frames per second, a
// pipeline accepts. Windows are sized in frames from spans in seconds,
// and the longest, the sigmaWindowSec robust-sigma window, holds 15,000
// frames at the cap (two float64 slices, 240 KB, kept sorted on every
// push). A UWB radar's slow-time rate is tens to hundreds of frames per
// second, so a higher rate is a corrupt hello or capture header.
const maxFrameRate = 1000

// checkFrameRate accepts a positive frame rate of at most maxFrameRate.
// NaN and +Inf pass a plain `<= 0` test, and a huge finite rate makes
// every span conversion to int implementation-defined, so the rate is
// judged in float64 before any window is sized from it.
func checkFrameRate(fps float64) error {
	if !(fps > 0 && fps <= maxFrameRate) {
		return fmt.Errorf("core: frame rate must be positive and at most %d fps, got %g", maxFrameRate, fps)
	}
	return nil
}
