package dsp

import "fmt"

// Error construction lives outside the //blinkradar:hotpath bodies:
// these paths are cold (they fire only on caller bugs), and keeping the
// fmt machinery out of the annotated functions lets blinkvet verify the
// per-frame path is allocation-free.

//blinkradar:coldpath
func errSampleCount(dst, n int) error {
	return fmt.Errorf("dsp: destination has %d samples, input %d", dst, n)
}

//blinkradar:coldpath
func errScratch(have, need int) error {
	return fmt.Errorf("dsp: scratch has %d elements, need %d", have, need)
}

//blinkradar:coldpath
func errAliased(fn string) error {
	return fmt.Errorf("dsp: %s destination must not alias the input", fn)
}
