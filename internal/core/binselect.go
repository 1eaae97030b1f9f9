package core

import (
	"fmt"
	"math"
	"sync"

	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// binScore is the selection diagnostics for one range bin.
type binScore struct {
	// bin is the range-bin index.
	bin int
	// variance is the 2-D I/Q variance of the bin's recent samples.
	variance float64
	// arcQuality in [0, 1] rewards bins whose samples lie on a clean
	// circular arc (embedded respiration/BCG interference) and
	// penalises bins whose variance comes from amplitude churn such as
	// chest bin-migration or passenger fidgeting.
	arcQuality float64
	// score is the combined selection score.
	score float64
}

// scoreBinRes evaluates one bin's slow-time window, using res
// (len(res) == len(series)) as the trimmed arc fit's working storage.
// The paper first ranks bins by 2-D variance, then validates with the
// arc fit that also yields the viewing position; combining both here
// folds that validation into a single score. One moment accumulation
// over the window feeds the variance, the Pratt fit and the
// eccentricity; only the trimmed residual and the angular extent still
// walk the samples.
func scoreBinRes(bin int, series []complex128, res []float64) binScore {
	var mom iq.SlidingMoments
	mom.Accumulate(series)
	s := binScore{bin: bin, variance: mom.Variance2D()}
	if s.variance <= 0 {
		return s
	}
	c, err := mom.FitPratt()
	if err != nil || c.Radius <= 0 {
		s.arcQuality = 0
		return s
	}
	// Judge arc quality on a trimmed residual: blinks throw ~15% of the
	// eye bin's samples off the circle, and punishing that would bias
	// selection toward blink-free neighbours (chin, forehead) whose
	// bins carry no blink signature.
	rel := trimmedRMSE(series, c, res) / (0.15 * c.Radius)
	s.arcQuality = 1 / (1 + rel*rel)
	// Embedded vital-sign interference at the eye subtends a short arc
	// (millimetre motion -> well under a radian of phase). Bins whose
	// trajectories wrap far around the circle get their variance from
	// centimetre-scale motion — chest breathing, limb movement, a
	// fidgeting passenger — and are down-weighted hard (quadratically).
	const maxArcRad = 2.0
	if ext := iq.AngularExtent(series, c.Center); ext > maxArcRad {
		p := maxArcRad / ext
		s.arcQuality *= p * p * p
	}
	// Short arcs are strongly anisotropic point clouds; full rotations
	// and noise balls are not. Eccentricity separates them even when
	// variance alone cannot.
	ecc := mom.Eccentricity()
	s.arcQuality *= 0.1 + 0.9*ecc*ecc
	s.score = s.variance * s.arcQuality
	return s
}

// selectScratch holds the working storage of one selection pass: the
// per-bin variance ranking, the candidate bound ordering, the gathered
// series window and the residual buffer of the trimmed arc fit. Buffers
// grow on first use and are reused afterwards, so a pass over a grown
// scratch allocates nothing.
type selectScratch struct {
	variances []binScore
	bounds    []float64
	order     []int
	series    []complex128
	res       []float64
}

// selectPool lends a selectScratch to one selection pass: the ranking
// itself and, in the detector, scoring the current bin and seeding the
// tracker. Selection runs once every ReselectIntervalFrames, so a
// detector holds no scratch between passes, and the pool keeps roughly
// one per P alive instead of one per session.
var selectPool = sync.Pool{New: func() any { return new(selectScratch) }}

// rankBins picks the eye's range bin from the selection ring. Every bin
// the ring stores is ranked by 2-D I/Q variance; the candidateTopK
// highest-variance bins are arc-scored, and the best combined score
// wins, the lower bin on a tie. Candidates whose covariance proves they
// cannot win (a bin's score never exceeds its variance times its
// eccentricity factor) are never scored. When no candidate scores above
// zero, the highest-variance bin wins. A ring in which no bin varies
// holds no evidence of the eye, so it selects nothing: ok is false, and
// the returned score is that flat fallback. It serves cold start,
// motion restart, reselection and SelectBinMatrix alike.
func rankBins(scr *selectScratch, r *binRing) (best binScore, ok bool) {
	scr.variances = grow(scr.variances, r.width)
	variances := scr.variances
	for i := range variances {
		varI, varQ, _ := r.stats(r.lo + i)
		variances[i] = binScore{bin: r.lo + i, variance: varI + varQ}
	}
	topK := min(candidateTopK, len(variances))
	// Only the topK highest-variance bins are ever arc-scored, so a
	// partial selection beats sorting the whole ranking; topK is small
	// (tens), so insertion sorts beat sort.Slice's indirection — and
	// allocate nothing.
	partitionTopVariance(variances, topK)
	for i := 1; i < topK; i++ {
		v := variances[i]
		j := i - 1
		for j >= 0 && (variances[j].variance < v.variance ||
			(variances[j].variance == v.variance && variances[j].bin > v.bin)) {
			variances[j+1] = variances[j]
			j--
		}
		variances[j+1] = v
	}
	// Branch-and-bound over the candidates. The eccentricity factor
	// caps arcQuality, so score <= variance·(0.1+0.9·ecc²): the bound
	// separates short-arc bins from motion clouds of larger variance
	// but weaker elongation.
	// Candidates are visited in descending bound order, so the moment
	// one candidate's bound falls below the best realised score, every
	// remaining candidate is proven a loser and is skipped unscored.
	scr.bounds = grow(scr.bounds, topK)
	scr.order = grow(scr.order, topK)
	bounds, order := scr.bounds, scr.order
	for i := 0; i < topK; i++ {
		varI, varQ, covIQ := r.stats(variances[i].bin)
		ecc := iq.EccentricityFromCov(varI, varQ, covIQ)
		bounds[i] = variances[i].variance * (0.1 + 0.9*ecc*ecc)
		order[i] = i
	}
	for i := 1; i < topK; i++ {
		o := order[i]
		j := i - 1
		for j >= 0 && (bounds[order[j]] < bounds[o] ||
			(bounds[order[j]] == bounds[o] && variances[order[j]].bin > variances[o].bin)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = o
	}
	best = binScore{score: math.Inf(-1)}
	for _, i := range order {
		if bounds[i] < best.score {
			continue
		}
		scr.series = r.seriesInto(variances[i].bin, scr.series)
		scr.res = grow(scr.res, len(scr.series))
		s := scoreBinRes(variances[i].bin, scr.series, scr.res)
		if s.score > best.score || (s.score == best.score && s.bin < best.bin) {
			best = s
		}
	}
	if best.score <= 0 {
		// No arc-like bin: fall back to raw variance (still better
		// than nothing, and the tracker's restart logic will recover).
		return variances[0], variances[0].variance > 0
	}
	return best, true
}

// grow resizes s to n elements, reallocating only when its capacity is
// too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SelectBinMatrix selects the eye bin from the trailing selection
// window of a preprocessed frame matrix, as a detector would: the
// window's rows are narrowed into a fresh selection ring and ranked by
// rankBins. A preprocessed matrix holds widened float32 samples, so the
// narrowing is exact, and on a capture's first ColdStartFrames frames
// the bin is the one a default-configured Detector selects at cold
// start. A window in which no bin varies selects no bin, as it selects
// none in the detector: SelectBinMatrix returns -1 and an error.
func SelectBinMatrix(m *rf.FrameMatrix) (int, error) {
	bins := m.NumBins()
	if bins <= GuardBins {
		return -1, fmt.Errorf("core: need more than %d guard bins, got %d bins", GuardBins, bins)
	}
	window := min(selectWindowFrames, m.NumFrames())
	r := newBinRing(bins, GuardBins, window)
	planes := iq.MakePlanes32(bins)
	for _, row := range m.Data[m.NumFrames()-window:] {
		planes.FromComplex(row)
		r.push(planes.I, planes.Q)
	}
	scr := selectPool.Get().(*selectScratch)
	defer selectPool.Put(scr)
	best, ok := rankBins(scr, r)
	if !ok {
		return -1, fmt.Errorf("core: no bin varies over the %d-frame selection window", window)
	}
	return best.bin, nil
}

// covFromSums recovers the centroid-centred covariance entries from
// sums of I, Q, I², Q² and I·Q over n samples, clamping the
// tiny negative axis variances rounding can produce on near-constant
// bins.
//
//blinkradar:hotpath
func covFromSums(sumI, sumQ, sumII, sumQQ, sumIQ float64, n int) (varI, varQ, covIQ float64) {
	if n < 2 {
		return 0, 0, 0
	}
	fn := float64(n)
	mi := sumI / fn
	mq := sumQ / fn
	varI = sumII/fn - mi*mi
	varQ = sumQQ/fn - mq*mq
	covIQ = sumIQ/fn - mi*mq
	if varI < 0 {
		varI = 0
	}
	if varQ < 0 {
		varQ = 0
	}
	return varI, varQ, covIQ
}

// trimmedRMSE returns the RMS radial residual of the best 80% of
// samples, using res (len(series) elements) as working storage. The
// trim needs only the k smallest squared residuals, in any order, so a
// quickselect partition replaces the full sort.
func trimmedRMSE(series []complex128, c iq.Circle, res []float64) float64 {
	if len(series) == 0 {
		return 0
	}
	for i, z := range series {
		d := z - c.Center
		// Plain sqrt, not Hypot: samples are sanitized upstream, so the
		// squared magnitude cannot overflow and the guard is pure cost.
		r := math.Sqrt(real(d)*real(d)+imag(d)*imag(d)) - c.Radius
		res[i] = r * r
	}
	keep := len(res) * 4 / 5
	if keep < 1 {
		keep = 1
	}
	partitionSmallest(res, keep)
	var acc float64
	for _, v := range res[:keep] {
		acc += v
	}
	return math.Sqrt(acc / float64(keep))
}

// partitionTopVariance reorders scores so its first k elements are the
// k best by descending variance with ascending bin index breaking ties
// (the exact order sort.Slice would produce), in unspecified relative
// order. Iterative Hoare quickselect, median-of-three pivots.
func partitionTopVariance(scores []binScore, k int) {
	before := func(a, b binScore) bool {
		if a.variance != b.variance {
			return a.variance > b.variance
		}
		return a.bin < b.bin
	}
	lo, hi := 0, len(scores)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if before(scores[mid], scores[lo]) {
			scores[mid], scores[lo] = scores[lo], scores[mid]
		}
		if before(scores[hi], scores[lo]) {
			scores[hi], scores[lo] = scores[lo], scores[hi]
		}
		if before(scores[hi], scores[mid]) {
			scores[hi], scores[mid] = scores[mid], scores[hi]
		}
		pivot := scores[mid]
		i, j := lo, hi
		for i <= j {
			for before(scores[i], pivot) {
				i++
			}
			for before(pivot, scores[j]) {
				j--
			}
			if i <= j {
				scores[i], scores[j] = scores[j], scores[i]
				i++
				j--
			}
		}
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}

// partitionSmallest reorders res so that its first k elements are the k
// smallest values, in unspecified order: an iterative Hoare quickselect
// with median-of-three pivoting. 1 <= k <= len(res).
func partitionSmallest(res []float64, k int) {
	lo, hi := 0, len(res)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if res[mid] < res[lo] {
			res[mid], res[lo] = res[lo], res[mid]
		}
		if res[hi] < res[lo] {
			res[hi], res[lo] = res[lo], res[hi]
		}
		if res[hi] < res[mid] {
			res[hi], res[mid] = res[mid], res[hi]
		}
		pivot := res[mid]
		i, j := lo, hi
		for i <= j {
			for res[i] < pivot {
				i++
			}
			for res[j] > pivot {
				j--
			}
			if i <= j {
				res[i], res[j] = res[j], res[i]
				i++
				j--
			}
		}
		// Recurse (iteratively) only into the side holding index k-1.
		if k-1 <= j {
			hi = j
		} else if k-1 >= i {
			lo = i
		} else {
			return
		}
	}
}

// binRing stores the most recent `window` frames of bins [lo, bins)
// for selection scoring, as two struct-of-arrays float32 planes laid
// out frame-major in one allocation: frame slot s holds
// bufI[s*width : (s+1)*width] / bufQ[...], width = bins - lo. Frames
// arrive frame-major, so push is two contiguous copies — the cheapest
// possible ingest — and the float32 planes halve the ring's memory
// footprint against the row-major []complex128 layout they replace.
// Bins below lo (the guard bins selection never scores) are not
// stored; callers still address bins by their absolute index.
//
// The per-bin consumers (stats sweeps and candidate series gathers)
// read with a width-sized stride instead of contiguously, but they run
// only at selection cadence (every ReselectIntervalFrames) plus
// cold-start, where the whole ring is a couple of L2-resident passes;
// paying stride there is far cheaper than transposing every frame on
// the per-push hot path was.
//
// No per-push statistics are maintained either. Selection stats are
// recomputed exactly from the stored samples on demand (stats), which
// at selection cadence costs less than keeping sliding sums coherent
// on every push — and leaves nothing to drift, so the old round-robin
// renormalization machinery is gone entirely.
type binRing struct {
	bufI   []float32 // window * width, frame-major
	bufQ   []float32
	lo     int
	width  int
	window int
	pos    int
	count  int
}

func newBinRing(bins, lo, window int) *binRing {
	width := bins - lo
	buf := make([]float32, 2*window*width)
	return &binRing{
		bufI:   buf[:window*width],
		bufQ:   buf[window*width:],
		lo:     lo,
		width:  width,
		window: window,
	}
}

// push appends one frame of planes (len == bins each), keeping bins
// [lo, bins). The input slices are copied, not retained.
//
//blinkradar:hotpath
func (r *binRing) push(pi, pq []float32) {
	off := r.pos * r.width
	copy(r.bufI[off:off+r.width], pi[r.lo:])
	copy(r.bufQ[off:off+r.width], pq[r.lo:])
	r.pos++
	if r.pos == r.window {
		r.pos = 0
	}
	if r.count < r.window {
		r.count++
	}
}

// size returns how many frames of history the ring holds, capped at
// the window.
func (r *binRing) size() int { return r.count }

// stats returns one bin's (>= lo) centred covariance entries,
// recomputed exactly from the stored window in one strided pass over
// each plane. Slots are visited in storage order, which is frame order
// until the ring wraps. The variances rank bins for selection, and the
// three entries bound the candidate pruning: arc quality never exceeds
// the eccentricity factor, a pure function of them.
//
//blinkradar:hotpath
func (r *binRing) stats(bin int) (varI, varQ, covIQ float64) {
	var si, sq, sii, sqq, siq float64
	for idx := bin - r.lo; idx < r.count*r.width; idx += r.width {
		i := float64(r.bufI[idx])
		q := float64(r.bufQ[idx])
		si += i
		sq += q
		sii += i * i
		sqq += q * q
		siq += i * q
	}
	return covFromSums(si, sq, sii, sqq, siq, r.count)
}

// seriesInto fills buf with the stored samples of one bin (>= lo),
// oldest first, growing it only when its capacity is too small, and
// returns the filled slice (widened from the float32 planes — selection
// scoring runs in float64).
//
//blinkradar:hotpath
func (r *binRing) seriesInto(bin int, buf []complex128) []complex128 {
	if cap(buf) < r.count {
		// Grows only until the ring window fills; steady state reuses
		// the caller's scratch.
		buf = make([]complex128, r.count) //blinkvet:ignore hotpathalloc -- amortised warm-up growth
	}
	buf = buf[:r.count]
	start := r.pos
	if r.count < r.window {
		start = 0
	}
	col := bin - r.lo
	n := 0
	for s := start; s < r.window && n < r.count; s++ {
		idx := s*r.width + col
		buf[n] = complex(float64(r.bufI[idx]), float64(r.bufQ[idx]))
		n++
	}
	for s := 0; n < r.count; s++ {
		idx := s*r.width + col
		buf[n] = complex(float64(r.bufI[idx]), float64(r.bufQ[idx]))
		n++
	}
	return buf
}

// latest returns the most recent sample of one bin (>= lo; zero if
// empty).
func (r *binRing) latest(bin int) complex128 {
	if r.count == 0 {
		return 0
	}
	s := r.pos - 1
	if s < 0 {
		s += r.window
	}
	idx := s*r.width + bin - r.lo
	return complex(float64(r.bufI[idx]), float64(r.bufQ[idx]))
}

func (r *binRing) reset() {
	r.pos = 0
	r.count = 0
}
