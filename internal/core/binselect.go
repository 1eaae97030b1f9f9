package core

import (
	"fmt"
	"math"

	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// BinScore is the selection diagnostics for one range bin.
type BinScore struct {
	// Bin is the range-bin index.
	Bin int
	// Variance is the 2-D I/Q variance of the bin's recent samples.
	Variance float64
	// ArcQuality in [0, 1] rewards bins whose samples lie on a clean
	// circular arc (embedded respiration/BCG interference) and
	// penalises bins whose variance comes from amplitude churn such as
	// chest bin-migration or passenger fidgeting.
	ArcQuality float64
	// Score is the combined selection score.
	Score float64
}

// scoreBinRes evaluates one bin's slow-time window, using res
// (len(res) == len(series)) as the trimmed arc fit's working storage.
// The paper first ranks bins by 2-D variance, then validates with the
// arc fit that also yields the viewing position; combining both here
// folds that validation into a single score. One moment accumulation
// over the window feeds the variance, the Pratt fit and the
// eccentricity; only the trimmed residual and the angular extent still
// walk the samples.
func scoreBinRes(bin int, series []complex128, res []float64) BinScore {
	var mom iq.SlidingMoments
	mom.Accumulate(series)
	s := BinScore{Bin: bin, Variance: mom.Variance2D()}
	if s.Variance <= 0 {
		return s
	}
	c, err := mom.FitPratt()
	if err != nil || c.Radius <= 0 {
		s.ArcQuality = 0
		return s
	}
	// Judge arc quality on a trimmed residual: blinks throw ~15% of the
	// eye bin's samples off the circle, and punishing that would bias
	// selection toward blink-free neighbours (chin, forehead) whose
	// bins carry no blink signature.
	rel := trimmedRMSE(series, c, res) / (0.15 * c.Radius)
	s.ArcQuality = 1 / (1 + rel*rel)
	// Embedded vital-sign interference at the eye subtends a short arc
	// (millimetre motion -> well under a radian of phase). Bins whose
	// trajectories wrap far around the circle get their variance from
	// centimetre-scale motion — chest breathing, limb movement, a
	// fidgeting passenger — and are down-weighted hard (quadratically).
	const maxArcRad = 2.0
	if ext := iq.AngularExtent(series, c.Center); ext > maxArcRad {
		p := maxArcRad / ext
		s.ArcQuality *= p * p * p
	}
	// Short arcs are strongly anisotropic point clouds; full rotations
	// and noise balls are not. Eccentricity separates them even when
	// variance alone cannot.
	ecc := mom.Eccentricity()
	s.ArcQuality *= 0.1 + 0.9*ecc*ecc
	s.Score = s.Variance * s.ArcQuality
	return s
}

// BinSeries supplies the recent background-subtracted slow-time samples
// of one range bin. Implementations fill buf (growing it when its
// capacity is too small) and return the filled slice, so callers that
// score many bins can reuse one window buffer instead of allocating per
// bin.
type BinSeries func(bin int, buf []complex128) []complex128

// BinStats supplies the covariance entries of one bin's recent
// slow-time window without gathering its series (see binRing.stats and
// SelectBinMatrix's sums): varI and varQ are the per-axis variances
// about the centroid, covIQ the cross term. They rank every bin by
// variance, and they bound the candidate pruning: arc quality never
// exceeds the eccentricity factor, which is a pure function of these
// three entries.
type BinStats func(bin int) (varI, varQ, covIQ float64)

// SelectScratch holds the reusable working storage of one selection
// sweep: the per-bin variance ranking, the candidate bound ordering,
// the gathered series window and the residual buffer of the trimmed
// arc fit. A zero value is ready to use; buffers grow on first use and
// are reused afterwards, so a caller that reuses a scratch (the
// streaming detector borrows one from a pool for each selection pass)
// runs selection without per-call allocation. The candidate slice
// returned by SelectBinScratch aliases the scratch and is valid until
// the next call with the same scratch.
type SelectScratch struct {
	variances  []BinScore
	candidates []BinScore
	bounds     []float64
	order      []int
	series     []complex128
	res        []float64
}

// SelectBin picks the eye's range bin from per-bin slow-time windows.
// Bins below guard are excluded (antenna direct path). The topK
// highest-variance candidates are arc-scored, and the best combined
// score wins. It returns the winning score and the topK candidates
// sorted by descending score; candidates whose statistics prove they
// cannot win (a bin's score never exceeds its variance times its
// eccentricity factor) are skipped by the scoring bound and carry their
// variance with a zero score. topK must be positive.
func SelectBin(series BinSeries, stats BinStats, numBins, guard, topK int) (BinScore, []BinScore, error) {
	var scr SelectScratch
	return SelectBinScratch(&scr, series, stats, numBins, guard, topK)
}

// SelectBinScratch is SelectBin with caller-owned working storage;
// repeated calls with the same scratch allocate nothing once the
// buffers have grown to the problem size. The returned candidate slice
// aliases the scratch.
func SelectBinScratch(scr *SelectScratch, series BinSeries, stats BinStats, numBins, guard, topK int) (BinScore, []BinScore, error) {
	if numBins <= guard {
		return BinScore{}, nil, fmt.Errorf("core: no bins beyond guard (%d bins, guard %d)", numBins, guard)
	}
	if topK <= 0 {
		return BinScore{}, nil, fmt.Errorf("core: candidate count must be positive, got %d", topK)
	}
	scr.variances = grow(scr.variances, numBins-guard)
	variances := scr.variances
	for i := range variances {
		varI, varQ, _ := stats(guard + i)
		variances[i] = BinScore{Bin: guard + i, Variance: varI + varQ}
	}
	if topK > len(variances) {
		topK = len(variances)
	}
	// Only the topK highest-variance bins are ever arc-scored, so a
	// partial selection beats sorting the whole ranking; topK is small
	// (tens), so insertion sorts beat sort.Slice's indirection — and
	// allocate nothing.
	partitionTopVariance(variances, topK)
	for i := 1; i < topK; i++ {
		v := variances[i]
		j := i - 1
		for j >= 0 && (variances[j].Variance < v.Variance ||
			(variances[j].Variance == v.Variance && variances[j].Bin > v.Bin)) {
			variances[j+1] = variances[j]
			j--
		}
		variances[j+1] = v
	}
	// Branch-and-bound over the candidates. The eccentricity factor
	// caps ArcQuality, so Score <= Variance·(0.1+0.9·ecc²): the bound
	// separates short-arc bins from motion clouds of larger variance
	// but weaker elongation.
	// Candidates are visited in descending bound order, so the moment
	// one candidate's bound falls below the best realised score, every
	// remaining candidate is proven a loser and is returned with its
	// variance only, unscored.
	scr.bounds = grow(scr.bounds, topK)
	scr.order = grow(scr.order, topK)
	bounds, order := scr.bounds, scr.order
	for i := 0; i < topK; i++ {
		varI, varQ, covIQ := stats(variances[i].Bin)
		ecc := iq.EccentricityFromCov(varI, varQ, covIQ)
		bounds[i] = variances[i].Variance * (0.1 + 0.9*ecc*ecc)
		order[i] = i
	}
	for i := 1; i < topK; i++ {
		o := order[i]
		j := i - 1
		for j >= 0 && (bounds[order[j]] < bounds[o] ||
			(bounds[order[j]] == bounds[o] && variances[order[j]].Bin > variances[o].Bin)) {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = o
	}
	scr.candidates = grow(scr.candidates, topK)
	candidates := scr.candidates
	bestScore := math.Inf(-1)
	for _, i := range order[:topK] {
		if bounds[i] < bestScore {
			candidates[i] = variances[i]
			continue
		}
		scr.series = series(variances[i].Bin, scr.series)
		scr.res = grow(scr.res, len(scr.series))
		candidates[i] = scoreBinRes(variances[i].Bin, scr.series, scr.res[:len(scr.series)])
		if candidates[i].Score > bestScore {
			bestScore = candidates[i].Score
		}
	}
	for i := 1; i < topK; i++ {
		c := candidates[i]
		j := i - 1
		for j >= 0 && (candidates[j].Score < c.Score ||
			(candidates[j].Score == c.Score && candidates[j].Bin > c.Bin)) {
			candidates[j+1] = candidates[j]
			j--
		}
		candidates[j+1] = c
	}
	best := candidates[0]
	if best.Score <= 0 {
		// No arc-like bin: fall back to raw variance (still better
		// than nothing, and the tracker's restart logic will recover).
		best = variances[0]
	}
	return best, candidates[:topK], nil
}

// grow resizes s to n elements, reallocating only when its capacity is
// too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SelectBinMatrix is the offline convenience: selects the eye bin from
// the trailing window of a preprocessed frame matrix. The variance
// ranking comes from per-bin sums accumulated in one frame-major sweep
// — sequential in memory, no per-bin series copies — so only the topK
// candidates ever have their windows gathered.
func SelectBinMatrix(m *rf.FrameMatrix) (BinScore, error) {
	window := min(selectWindowFrames, m.NumFrames())
	start := m.NumFrames() - window
	bins := m.NumBins()
	// One backing array for all five per-bin sums: the sweep below is
	// the only consumer, and a single allocation keeps the offline path
	// as lean as the streaming one.
	sums := make([]float64, 5*bins)
	sumI := sums[0*bins : 1*bins]
	sumQ := sums[1*bins : 2*bins]
	sumII := sums[2*bins : 3*bins]
	sumQQ := sums[3*bins : 4*bins]
	sumIQ := sums[4*bins : 5*bins]
	for k := 0; k < window; k++ {
		row := m.Data[start+k]
		for b, z := range row {
			x, y := real(z), imag(z)
			sumI[b] += x
			sumQ[b] += y
			sumII[b] += x * x
			sumQQ[b] += y * y
			sumIQ[b] += x * y
		}
	}
	stats := func(bin int) (float64, float64, float64) {
		return covFromSums(sumI[bin], sumQ[bin], sumII[bin], sumQQ[bin], sumIQ[bin], window)
	}
	best, _, err := SelectBin(func(bin int, buf []complex128) []complex128 {
		if cap(buf) < window {
			buf = make([]complex128, window)
		}
		buf = buf[:window]
		for k := 0; k < window; k++ {
			buf[k] = m.Data[start+k][bin]
		}
		return buf
	}, stats, m.NumBins(), GuardBins, candidateTopK)
	return best, err
}

// covFromSums recovers the centroid-centred covariance entries from
// sliding sums of I, Q, I², Q² and I·Q over n samples, clamping the
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
func partitionTopVariance(scores []BinScore, k int) {
	before := func(a, b BinScore) bool {
		if a.Variance != b.Variance {
			return a.Variance > b.Variance
		}
		return a.Bin < b.Bin
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

// stats returns one bin's centred covariance entries, recomputed
// exactly from the stored window in one strided pass over each plane
// (slots are visited in storage order; the sums are
// order-independent). It satisfies the BinStats contract for bins
// >= lo.
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
// scoring runs in float64). It satisfies the BinSeries contract.
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
