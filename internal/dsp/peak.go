package dsp

// Extremum is a local maximum or minimum found in a sampled waveform.
type Extremum struct {
	// Index is the sample index of the extremum.
	Index int
	// Value is the waveform value at Index.
	Value float64
	// Max is true for a local maximum, false for a local minimum.
	Max bool
}

// LocalExtrema returns the alternating local maxima and minima of x.
// Plateaus report their midpoint. The result alternates strictly between
// maxima and minima, which is the structure the LEVD blink detector
// relies on: a blink appears as a max-min (or min-max) pair whose value
// difference exceeds the detection threshold.
func LocalExtrema(x []float64) []Extremum {
	n := len(x)
	if n < 3 {
		return nil
	}
	var out []Extremum
	i := 1
	for i < n-1 {
		// Skip forward over plateaus so each flat top counts once.
		j := i
		for j < n-1 && x[j] == x[j+1] {
			j++
		}
		if j >= n-1 {
			break
		}
		left := x[i-1]
		right := x[j+1]
		mid := (i + j) / 2
		switch {
		case x[i] > left && x[i] > right:
			out = appendAlternating(out, Extremum{Index: mid, Value: x[i], Max: true})
		case x[i] < left && x[i] < right:
			out = appendAlternating(out, Extremum{Index: mid, Value: x[i], Max: false})
		}
		i = j + 1
	}
	return out
}

// appendAlternating keeps the extrema sequence strictly alternating. If
// two maxima (or two minima) would be adjacent, the more extreme one is
// kept.
func appendAlternating(seq []Extremum, e Extremum) []Extremum {
	if len(seq) == 0 {
		return append(seq, e)
	}
	last := &seq[len(seq)-1]
	if last.Max != e.Max {
		return append(seq, e)
	}
	if e.Max && e.Value > last.Value {
		*last = e
	} else if !e.Max && e.Value < last.Value {
		*last = e
	}
	return seq
}

// Peak describes a peak found by FindPeaks.
type Peak struct {
	// Index is the sample index of the peak apex.
	Index int
	// Value is the waveform value at the apex.
	Value float64
	// Prominence is the height of the apex above the higher of the two
	// flanking valleys.
	Prominence float64
}

// FindPeaks locates local maxima of x that rise at least minProminence
// above their surrounding valleys and are separated by at least
// minDistance samples. Peaks are returned in index order. When two peaks
// violate the distance constraint the taller one wins.
func FindPeaks(x []float64, minProminence float64, minDistance int) []Peak {
	ext := LocalExtrema(x)
	if len(ext) == 0 {
		return nil
	}
	var peaks []Peak
	for i, e := range ext {
		if !e.Max {
			continue
		}
		// Flanking minima (fall back to the global edges).
		leftVal := x[0]
		if i > 0 {
			leftVal = ext[i-1].Value
		}
		rightVal := x[len(x)-1]
		if i < len(ext)-1 {
			rightVal = ext[i+1].Value
		}
		base := leftVal
		if rightVal > base {
			base = rightVal
		}
		prom := e.Value - base
		if prom >= minProminence {
			peaks = append(peaks, Peak{Index: e.Index, Value: e.Value, Prominence: prom})
		}
	}
	if minDistance <= 1 || len(peaks) < 2 {
		return peaks
	}
	return enforceDistance(peaks, minDistance)
}

// enforceDistance greedily keeps the tallest peaks subject to the
// minimum-separation constraint.
func enforceDistance(peaks []Peak, minDistance int) []Peak {
	// Sort candidate order by height (descending) without disturbing the
	// caller's slice ordering expectations; a simple selection keeps the
	// code allocation-light for the short peak lists seen in practice.
	order := make([]int, len(peaks))
	for i := range order {
		order[i] = i
	}
	for i := 0; i < len(order); i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			if peaks[order[j]].Value > peaks[order[best]].Value {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	kept := make([]bool, len(peaks))
	suppressed := make([]bool, len(peaks))
	for _, idx := range order {
		if suppressed[idx] {
			continue
		}
		kept[idx] = true
		for j := range peaks {
			if j == idx || suppressed[j] || kept[j] {
				continue
			}
			d := peaks[j].Index - peaks[idx].Index
			if d < 0 {
				d = -d
			}
			if d < minDistance {
				suppressed[j] = true
			}
		}
	}
	out := peaks[:0:0]
	for i, p := range peaks {
		if kept[i] {
			out = append(out, p)
		}
	}
	return out
}
