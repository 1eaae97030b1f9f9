package iq

// SlidingMoments maintains, under push and evict, the raw power sums a
// Pratt circle fit needs over a sliding window of I/Q
// samples: with x = I, y = Q and z = x^2 + y^2 it tracks
// Σx, Σy, Σxx, Σxy, Σyy, Σxz, Σyz and Σzz. The centred moments of
// Chernov's formulation are recovered from these sums in O(1), so the
// characteristic polynomial can be solved without touching the sample
// window — turning each O(window) refit into an O(1)-amortised update.
//
// Floating-point drift: every Push/Evict pair leaves O(eps) rounding
// residue in the sums, so the accumulator counts evictions and reports
// NeedsRenorm once renormEvery of them have passed; the owner then
// calls Reset and pushes the current window contents again for an
// exact recompute. With renormEvery equal to the window length the exact
// pass amortises to O(1) per frame and bounds the relative drift to
// ~window·eps of the raw-sum scale, far inside the tolerance of the
// differential tests.
//
// Numerical caveat: recovering centred moments from raw sums cancels
// catastrophically when the cloud's mean is many orders of magnitude
// larger than its spread. The pipeline feeds background-subtracted
// samples whose means are comparable to their spread, where the
// recovered moments match the two-pass batch reference to ~1e-9
// relative (enforced by FuzzSlidingMoments).
//
// The zero value is an empty accumulator that never requests
// renormalization; use NewSlidingMoments to set a renormalization
// interval.
type SlidingMoments struct {
	n                                    int
	sx, sy, sxx, sxy, syy, sxz, syz, szz float64
	evictions, renormEvery               int
}

// NewSlidingMoments returns an empty accumulator that requests an
// exact recompute every renormEvery evictions (<= 0 disables the
// request; the sums then drift unboundedly and the caller owns the
// renormalization policy).
func NewSlidingMoments(renormEvery int) SlidingMoments {
	return SlidingMoments{renormEvery: renormEvery}
}

// Push folds one sample into the sums.
//
//blinkradar:hotpath
func (s *SlidingMoments) Push(z complex128) {
	x, y := real(z), imag(z)
	zz := x*x + y*y
	s.sx += x
	s.sy += y
	s.sxx += x * x
	s.sxy += x * y
	s.syy += y * y
	s.sxz += x * zz
	s.syz += y * zz
	s.szz += zz * zz
	s.n++
}

// Evict removes one sample from the sums. The value must be one that
// was previously pushed and has not yet been evicted (the caller's
// window ring knows which sample is leaving).
//
//blinkradar:hotpath
func (s *SlidingMoments) Evict(z complex128) {
	if s.n <= 1 {
		// Emptying the window: clear the residue exactly rather than
		// leaving O(eps) garbage sums behind.
		every := s.renormEvery
		*s = SlidingMoments{renormEvery: every}
		return
	}
	x, y := real(z), imag(z)
	zz := x*x + y*y
	s.sx -= x
	s.sy -= y
	s.sxx -= x * x
	s.sxy -= x * y
	s.syy -= y * y
	s.sxz -= x * zz
	s.syz -= y * zz
	s.szz -= zz * zz
	s.n--
	s.evictions++
}

// Accumulate pushes every sample of z; with a zero-value accumulator
// this is the one-pass batch entry point used by bin scoring.
//
//blinkradar:hotpath
func (s *SlidingMoments) Accumulate(z []complex128) {
	for _, c := range z {
		s.Push(c)
	}
}

// Count returns the number of samples currently summed.
func (s *SlidingMoments) Count() int { return s.n }

// NeedsRenorm reports whether enough evictions have accumulated that
// the owner should Reset the sums and push the current window again.
func (s *SlidingMoments) NeedsRenorm() bool {
	return s.renormEvery > 0 && s.evictions >= s.renormEvery
}

// Reset empties the accumulator, keeping the renormalization interval
// and clearing the eviction count.
func (s *SlidingMoments) Reset() {
	every := s.renormEvery
	*s = SlidingMoments{renormEvery: every}
}

// Variance2D returns the total 2-D variance of the summed samples
// about their centroid, matching Variance2D on the window contents.
//
//blinkradar:hotpath
func (s *SlidingMoments) Variance2D() float64 {
	if s.n < 2 {
		return 0
	}
	fn := float64(s.n)
	mx := s.sx / fn
	my := s.sy / fn
	v := (s.sxx+s.syy)/fn - mx*mx - my*my
	if v < 0 {
		// Rounding can push a near-zero variance fractionally negative.
		v = 0
	}
	return v
}

// Eccentricity returns the elongation of the summed cloud in [0, 1],
// matching Eccentricity on the window contents.
func (s *SlidingMoments) Eccentricity() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.moments()
	return eccentricityOf(m.mxx, m.myy, m.mxy)
}

// moments recovers the centred moments of Chernov's formulation from
// the raw sums. Call only with n >= 1.
func (s *SlidingMoments) moments() moments {
	var m moments
	m.n = s.n
	fn := float64(s.n)
	a := s.sx / fn
	b := s.sy / fn
	m.meanI = a
	m.meanQ = b
	m.mxx = s.sxx/fn - a*a
	m.myy = s.syy/fn - b*b
	m.mxy = s.sxy/fn - a*b
	sz := s.sxx + s.syy
	m.mxz = (s.sxz-a*sz)/fn - 2*a*m.mxx - 2*b*m.mxy
	m.myz = (s.syz-b*sz)/fn - 2*b*m.myy - 2*a*m.mxy
	c := a*a + b*b
	m.mzz = (s.szz+4*a*a*s.sxx+4*b*b*s.syy-4*a*s.sxz-4*b*s.syz+8*a*b*s.sxy+2*c*sz)/fn - 3*c*c
	m.mz = m.mxx + m.myy
	m.covXY = m.mxx*m.myy - m.mxy*m.mxy
	m.varZ = m.mzz - m.mz*m.mz
	return m
}

// FitPratt fits a circle to the summed window by Pratt's method,
// solving the characteristic polynomial directly from the cached
// moments — no pass over the samples. The returned RMSE is the O(1)
// algebraic estimate of rmseEstimate, not the exact sample RMSE;
// centre and radius match FitCirclePratt on the same window to
// floating-point tolerance.
//
//blinkradar:hotpath
func (s *SlidingMoments) FitPratt() (Circle, error) {
	if s.n < 3 {
		return Circle{}, ErrDegenerateFit
	}
	m := s.moments()
	c, err := m.circle(m.prattRoot())
	if err != nil {
		return Circle{}, err
	}
	c.RMSE = m.rmseEstimate(c)
	return c, nil
}

// FitPrattExcluding fits a circle by Pratt's method to the summed
// window minus the samples accumulated in sub — the moment-space
// complement of filtering the window and refitting. The trim pass of a
// tracker refit rejects a small fraction of off-circle samples; with
// their sums subtracted, the trimmed fit stays O(rejected) instead of
// O(window), with no pass over the kept samples at all.
//
// Numerics: the difference of raw sums loses at most the rejected
// fraction's worth of magnitude, so for trims that discard a minority
// of the window the recovered moments carry the same ~1e-9 relative
// agreement with the batch reference as the plain sliding fit
// (enforced by FuzzSlidingMoments's exclusion case).
//
//blinkradar:hotpath
func (s *SlidingMoments) FitPrattExcluding(sub *SlidingMoments) (Circle, error) {
	d := SlidingMoments{
		n:   s.n - sub.n,
		sx:  s.sx - sub.sx,
		sy:  s.sy - sub.sy,
		sxx: s.sxx - sub.sxx,
		sxy: s.sxy - sub.sxy,
		syy: s.syy - sub.syy,
		sxz: s.sxz - sub.sxz,
		syz: s.syz - sub.syz,
		szz: s.szz - sub.szz,
	}
	return d.FitPratt()
}
