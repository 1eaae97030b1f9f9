package dsp

import "math"

// Hamming returns the n-point Hamming window
// w[i] = 0.54 - 0.46*cos(2*pi*i/(n-1)), the window the paper uses for its
// order-26 FIR noise-reduction filter.
func Hamming(n int) []float64 {
	return cosineWindow(n, 0.54, 0.46)
}

// Hann returns the n-point Hann (hanning) window.
func Hann(n int) []float64 {
	return cosineWindow(n, 0.5, 0.5)
}

// cosineWindow builds a generalised two-term cosine window a - b*cos(...).
func cosineWindow(n int, a, b float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	if n == 1 {
		w[0] = 1
		return w
	}
	for i := 0; i < n; i++ {
		w[i] = a - b*math.Cos(2*math.Pi*float64(i)/float64(n-1))
	}
	return w
}
