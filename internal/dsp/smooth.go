package dsp

// MovingAverage smooths x with a centred moving-average window of the
// given size and returns a new slice of the same length. Window edges
// shrink symmetrically near the boundaries so no samples are lost. The
// paper's preprocessing cascade uses a 50-point smoothing filter after
// the FIR stage.
func MovingAverage(x []float64, window int) ([]float64, error) {
	out := make([]float64, len(x))
	if err := MovingAverageInto(out, x, make([]float64, len(x)+1), window); err != nil {
		return nil, err
	}
	return out, nil
}

// MovingAverageInto smooths x into dst with MovingAverage's centred,
// edge-shrinking window, performing no allocations: prefix is caller
// scratch of at least len(x)+1 elements that receives the running
// prefix sums, which give O(n) smoothing independent of window size.
// dst must have the same length as x and must not alias it.
//
//blinkradar:hotpath
func MovingAverageInto(dst, x, prefix []float64, window int) error {
	if err := validateLength("smoothing window", window); err != nil {
		return err
	}
	n := len(x)
	if len(dst) != n {
		return errSampleCount(len(dst), n)
	}
	if n == 0 {
		return nil
	}
	if &dst[0] == &x[0] {
		return errAliased("MovingAverageInto")
	}
	if len(prefix) <= n {
		return errScratch(len(prefix), n+1)
	}
	prefix[0] = 0
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	half := window / 2
	for i := range dst {
		lo, hi := max(i-half, 0), min(i+half, n-1)
		dst[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return nil
}
