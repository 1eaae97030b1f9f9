package iq

import (
	"errors"
	"math"
)

// Circle is a fitted circle in the I/Q plane. Center is complex(I, Q).
type Circle struct {
	// Center of the fitted circle.
	Center complex128
	// Radius of the fitted circle.
	Radius float64
	// RMSE is the root-mean-square of the radial residuals
	// | |z-Center| - Radius | over the fitted samples.
	RMSE float64
}

// ErrDegenerateFit is returned when the sample cloud does not determine
// a circle (fewer than three points, coincident points, or collinear
// points with a vanishing covariance determinant).
var ErrDegenerateFit = errors.New("iq: degenerate circle fit")

// moments holds the centred second- and third-order moments of
// Chernov's formulation of the Pratt fit, shared by the batch and
// sliding-window fits.
type moments struct {
	meanI, meanQ    float64
	mxx, myy, mxy   float64
	mxz, myz, mzz   float64
	mz, covXY, varZ float64
	n               int
}

func computeMoments(z []complex128) (moments, error) {
	var m moments
	m.n = len(z)
	if m.n < 3 {
		return m, ErrDegenerateFit
	}
	for _, c := range z {
		m.meanI += real(c)
		m.meanQ += imag(c)
	}
	fn := float64(m.n)
	m.meanI /= fn
	m.meanQ /= fn
	for _, c := range z {
		xi := real(c) - m.meanI
		yi := imag(c) - m.meanQ
		zi := xi*xi + yi*yi
		m.mxx += xi * xi
		m.myy += yi * yi
		m.mxy += xi * yi
		m.mxz += xi * zi
		m.myz += yi * zi
		m.mzz += zi * zi
	}
	m.mxx /= fn
	m.myy /= fn
	m.mxy /= fn
	m.mxz /= fn
	m.myz /= fn
	m.mzz /= fn
	m.mz = m.mxx + m.myy
	m.covXY = m.mxx*m.myy - m.mxy*m.mxy
	m.varZ = m.mzz - m.mz*m.mz
	return m, nil
}

// circle converts Pratt's characteristic root x into a Circle,
// translating the centre back from centred coordinates. RMSE is left
// zero for the caller to fill in.
func (m moments) circle(x float64) (Circle, error) {
	det := x*x - x*m.mz + m.covXY
	if det == 0 || math.IsNaN(det) || math.IsInf(det, 0) {
		return Circle{}, ErrDegenerateFit
	}
	ci := (m.mxz*(m.myy-x) - m.myz*m.mxy) / det / 2
	cq := (m.myz*(m.mxx-x) - m.mxz*m.mxy) / det / 2
	r2 := ci*ci + cq*cq + m.mz + 2*x
	if r2 <= 0 || math.IsNaN(r2) {
		return Circle{}, ErrDegenerateFit
	}
	return Circle{
		Center: complex(ci+m.meanI, cq+m.meanQ),
		Radius: math.Sqrt(r2),
	}, nil
}

// finish converts Pratt's characteristic root x into a Circle and
// stamps the exact sample-based RMSE.
func (m moments) finish(z []complex128, x float64) (Circle, error) {
	c, err := m.circle(x)
	if err != nil {
		return Circle{}, err
	}
	c.RMSE = radialRMSE(z, c)
	return c, nil
}

// rmseEstimate approximates the radial RMSE of c over the point cloud
// summarised by m, without touching the samples. It is exact for the
// algebraic residual E[(|p-c|^2 - R^2)^2] and divides by 2R, which
// matches the geometric RMSE to first order when residuals are small
// against the radius — the regime every accepted arc fit lives in.
// Degenerate clouds (residuals comparable to R) overestimate slightly,
// which only makes the tracker's degenerate-fit gate more conservative.
func (m moments) rmseEstimate(c Circle) float64 {
	cx := real(c.Center) - m.meanI
	cy := imag(c.Center) - m.meanQ
	q := cx*cx + cy*cy
	// E[|p-c|^2] and E[|p-c|^4] in centred coordinates, from the same
	// moments the fit consumed.
	e2 := m.mz + q
	e4 := m.mzz + 4*cx*cx*m.mxx + 4*cy*cy*m.myy + q*q -
		4*cx*m.mxz - 4*cy*m.myz + 2*q*m.mz + 8*cx*cy*m.mxy
	r2 := c.Radius * c.Radius
	msr := e4 - 2*r2*e2 + r2*r2
	if msr <= 0 || c.Radius <= 0 {
		return 0
	}
	return math.Sqrt(msr) / (2 * c.Radius)
}

func radialRMSE(z []complex128, c Circle) float64 {
	if len(z) == 0 {
		return 0
	}
	var acc float64
	for _, p := range z {
		dx := real(p) - real(c.Center)
		dy := imag(p) - imag(c.Center)
		d := math.Hypot(dx, dy) - c.Radius
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(z)))
}

// FitCirclePratt fits a circle to the I/Q samples using Pratt's
// algebraic method (minimising the algebraic distance under the
// constraint B^2 + C^2 - 4AD = 1). The paper selects this fit because it
// is "lightweight and robust" for short arcs — exactly the regime of
// blink- and BCG-induced trajectories, which subtend only a small
// angular extent of the circle.
func FitCirclePratt(z []complex128) (Circle, error) {
	m, err := computeMoments(z)
	if err != nil {
		return Circle{}, err
	}
	return m.finish(z, m.prattRoot())
}

// prattRoot solves Pratt's characteristic polynomial
// P(x) = A0 + A1 x + A2 x^2 + 4 x^4 by a guarded Newton iteration from
// x = 0 (Chernov).
func (m moments) prattRoot() float64 {
	a2 := -3*m.mz*m.mz - m.mzz
	a1 := m.varZ*m.mz + 4*m.covXY*m.mz - m.mxz*m.mxz - m.myz*m.myz
	a0 := m.mxz*(m.mxz*m.myy-m.myz*m.mxy) + m.myz*(m.myz*m.mxx-m.mxz*m.mxy) - m.varZ*m.covXY
	a22 := a2 + a2

	x := 0.0
	y := a0
	for iter := 0; iter < 50; iter++ {
		dy := a1 + x*(a22+16*x*x)
		if dy == 0 {
			break
		}
		xNew := x - y/dy
		if xNew == x || math.IsNaN(xNew) || math.IsInf(xNew, 0) {
			break
		}
		yNew := a0 + xNew*(a1+xNew*(a2+4*xNew*xNew))
		if math.Abs(yNew) >= math.Abs(y) {
			break
		}
		x, y = xNew, yNew
	}
	return x
}
