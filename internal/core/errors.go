package core

import (
	"fmt"
	"math"
)

// errFrameBins reports a frame/preprocessor bin-count mismatch. It lives
// outside the //blinkradar:hotpath bodies so the fmt machinery stays off
// the per-frame path; the branch only fires on caller bugs.
//
//blinkradar:coldpath
func errFrameBins(got, want int) error {
	return fmt.Errorf("core: frame has %d bins, preprocessor configured for %d", got, want)
}

// checkFrameRate accepts a finite, positive frame rate. NaN and +Inf
// pass a plain `<= 0` test, and every window sized from them is
// garbage.
func checkFrameRate(fps float64) error {
	if !(fps > 0) || math.IsInf(fps, 1) {
		return fmt.Errorf("core: frame rate must be positive and finite, got %g", fps)
	}
	return nil
}
