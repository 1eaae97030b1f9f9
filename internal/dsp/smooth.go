package dsp

// MovingAverage smooths x with a centred moving-average window of the
// given size and returns a new slice of the same length. Window edges
// shrink symmetrically near the boundaries so no samples are lost. The
// paper's preprocessing cascade uses a 50-point smoothing filter after
// the FIR stage.
func MovingAverage(x []float64, window int) ([]float64, error) {
	if err := validateLength("smoothing window", window); err != nil {
		return nil, err
	}
	n := len(x)
	out := make([]float64, n)
	if n == 0 {
		return out, nil
	}
	half := window / 2
	// Prefix sums give O(n) smoothing independent of window size.
	prefix := make([]float64, n+1)
	for i, v := range x {
		prefix[i+1] = prefix[i] + v
	}
	for i := 0; i < n; i++ {
		lo := i - half
		hi := i + half
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out, nil
}
