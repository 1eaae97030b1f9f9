package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
)

// planesOf splits a complex frame into freshly allocated I/Q planes.
func planesOf(z []complex128) iq.Planes32 {
	p := iq.MakePlanes32(len(z))
	p.FromComplex(z)
	return p
}

func TestBackgroundSubtractorRemovesStatic(t *testing.T) {
	bg, err := NewBackgroundSubtractor(3, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	static := []complex128{1 + 2i, -3i, 0.5}
	frame := iq.MakePlanes32(3)
	// Prime (25 frames at 25 fps) then verify exact cancellation.
	for i := 0; i < 30; i++ {
		frame.FromComplex(static)
		bg.ApplyPlanes(frame.I, frame.Q)
	}
	for b := range static {
		if v := frame.At(b); cmplx.Abs(v) > 1e-12 {
			t.Fatalf("bin %d residual %v after static scene", b, v)
		}
	}
	// Background accessor matches the scene.
	for b, v := range bg.Background() {
		if cmplx.Abs(v-static[b]) > 1e-9 {
			t.Fatalf("background[%d] = %v, want %v", b, v, static[b])
		}
	}
	// A dynamic component passes through untouched.
	frame.FromComplex(static)
	frame.Q[1] += 0.25
	bg.ApplyPlanes(frame.I, frame.Q)
	if v := frame.At(1); cmplx.Abs(v-0.25i) > 1e-9 {
		t.Fatalf("dynamic component distorted: %v", v)
	}
}

func TestBackgroundSubtractorPrimingOutputsZero(t *testing.T) {
	bg, err := NewBackgroundSubtractor(1, 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	frame := planesOf([]complex128{5 - 1i})
	bg.ApplyPlanes(frame.I, frame.Q)
	if frame.At(0) != 0 {
		t.Fatal("priming frames must be zeroed")
	}
}

func TestBackgroundSubtractorReset(t *testing.T) {
	bg, _ := NewBackgroundSubtractor(1, 25, 0.2)
	for i := 0; i < 10; i++ {
		f := planesOf([]complex128{1})
		bg.ApplyPlanes(f.I, f.Q)
	}
	bg.Reset()
	f := planesOf([]complex128{1})
	bg.ApplyPlanes(f.I, f.Q)
	if f.At(0) != 0 {
		t.Fatal("reset subtractor must re-prime")
	}
}

func TestBackgroundSubtractorErrors(t *testing.T) {
	if _, err := NewBackgroundSubtractor(0, 25, 1); err == nil {
		t.Fatal("zero bins must be rejected")
	}
	if _, err := NewBackgroundSubtractor(3, 0, 1); err == nil {
		t.Fatal("zero rate must be rejected")
	}
	if _, err := NewBackgroundSubtractor(3, 25, 0); err == nil {
		t.Fatal("zero tau must be rejected")
	}
}

// planarConfig names one of the denoise branches of ProcessPlanes.
type planarConfig struct {
	name string
	cfg  Config
}

// planarConfigs covers every denoise branch of ProcessPlanes: none (the
// default), the stand-alone smoother, and the fused FIR with and
// without smoothing.
func planarConfigs() []planarConfig {
	smooth := DefaultConfig()
	smooth.FastTimeSmoothBins = 3
	firSmooth := DefaultConfig()
	firSmooth.EnableFastTimeFIR = true
	firSmooth.FastTimeSmoothBins = 3
	fir := DefaultConfig()
	fir.EnableFastTimeFIR = true
	fir.FastTimeSmoothBins = 1
	return []planarConfig{
		{"default", DefaultConfig()},
		{"smooth3", smooth},
		{"fir+smooth3", firSmooth},
		{"fir+smooth1", fir},
	}
}

// planarBins exceeds 2*FIROrder, so the fast-time FIR engages.
const planarBins = 64

// randomPlaneFrames draws n seeded frames of normally distributed I/Q
// planes.
func randomPlaneFrames(n, bins int, seed int64) []iq.Planes32 {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]iq.Planes32, n)
	for k := range frames {
		frames[k] = iq.MakePlanes32(bins)
		for b := 0; b < bins; b++ {
			frames[k].Set(b, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return frames
}

// hammingLowPass designs the order-`order` Hamming-window low-pass FIR
// independently of internal/dsp: windowed sinc normalised to unity DC
// gain.
func hammingLowPass(order int, cutoff float64) []float64 {
	taps := make([]float64, order+1)
	var sum float64
	for i := range taps {
		x := 2 * math.Pi * cutoff * (float64(i) - float64(order)/2)
		sinc := 1.0
		if x != 0 {
			sinc = math.Sin(x) / x
		}
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(order))
		taps[i] = 2 * cutoff * sinc * w
		sum += taps[i]
	}
	for i := range taps {
		taps[i] /= sum
	}
	return taps
}

// directFIR is the direct-form float64 FIR oracle: group delay
// compensated by order/2 samples, edges replicated.
func directFIR(taps, x []float64) []float64 {
	n, delay := len(x), (len(taps)-1)/2
	out := make([]float64, n)
	for i := range out {
		for j, t := range taps {
			out[i] += t * x[min(max(i+delay-j, 0), n-1)]
		}
	}
	return out
}

// referenceDenoise runs the float64 oracle of the noise-reduction stage
// over one plane: the direct-form FIR when the config engages it, then
// the centred moving average.
func referenceDenoise(t *testing.T, cfg Config, x []float64) []float64 {
	t.Helper()
	out := x
	if cfg.EnableFastTimeFIR && len(x) > 2*cfg.FIROrder {
		out = directFIR(hammingLowPass(cfg.FIROrder, cfg.FIRCutoff), x)
	}
	if cfg.FastTimeSmoothBins > 1 {
		smoothed := make([]float64, len(out))
		if err := dsp.MovingAverageInto(smoothed, out, cfg.FastTimeSmoothBins); err != nil {
			t.Fatal(err)
		}
		out = smoothed
	}
	return out
}

// TestProcessPlanesMatchesFloat64Reference holds the float32 planar
// preprocessor to DESIGN.md §13's budget — 1e-5 of the input peak —
// against a float64 reference of the whole chain: the denoise oracle on
// each plane, then subtraction of the float64 mean of the denoised
// priming frames, with the priming frames themselves zeroed.
func TestProcessPlanesMatchesFloat64Reference(t *testing.T) {
	for _, tc := range planarConfigs() {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPreprocessor(tc.cfg, planarBins, 25)
			if err != nil {
				t.Fatal(err)
			}
			prime := p.background.primeFrames
			frames := randomPlaneFrames(4*prime, planarBins, 11)
			var peak float64
			refI := make([][]float64, len(frames))
			refQ := make([][]float64, len(frames))
			for k, f := range frames {
				xi := make([]float64, planarBins)
				xq := make([]float64, planarBins)
				for b := range xi {
					xi[b], xq[b] = float64(f.I[b]), float64(f.Q[b])
					peak = math.Max(peak, math.Max(math.Abs(xi[b]), math.Abs(xq[b])))
				}
				refI[k] = referenceDenoise(t, tc.cfg, xi)
				refQ[k] = referenceDenoise(t, tc.cfg, xq)
			}
			meanI := make([]float64, planarBins)
			meanQ := make([]float64, planarBins)
			for k := 0; k < prime; k++ {
				for b := range meanI {
					meanI[b] += refI[k][b] / float64(prime)
					meanQ[b] += refQ[k][b] / float64(prime)
				}
			}
			tol := 1e-5 * peak
			for k, f := range frames {
				if err := p.ProcessPlanes(f.I, f.Q); err != nil {
					t.Fatal(err)
				}
				for b := 0; b < planarBins; b++ {
					var wantI, wantQ float64
					if k >= prime {
						wantI, wantQ = refI[k][b]-meanI[b], refQ[k][b]-meanQ[b]
					}
					d := math.Max(math.Abs(float64(f.I[b])-wantI), math.Abs(float64(f.Q[b])-wantQ))
					if d > tol {
						t.Fatalf("frame %d bin %d: off the float64 reference by %.3g, budget %.3g", k, b, d, tol)
					}
				}
			}
		})
	}
}

func TestPreprocessorFrameSizeCheck(t *testing.T) {
	for _, tc := range planarConfigs() {
		p, err := NewPreprocessor(tc.cfg, planarBins, 25)
		if err != nil {
			t.Fatal(err)
		}
		good := make([]float32, planarBins)
		short := make([]float32, planarBins-1)
		if err := p.ProcessPlanes(short, short); err == nil {
			t.Fatalf("%s: short frame must be rejected", tc.name)
		}
		if err := p.ProcessPlanes(good, short); err == nil {
			t.Fatalf("%s: mismatched planes must be rejected", tc.name)
		}
		if err := p.ProcessPlanes(good, good); err != nil {
			t.Fatalf("%s: well-sized frame rejected: %v", tc.name, err)
		}
	}
}

func TestSmoothFastTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FastTimeSmoothBins = 3
	p, err := NewPreprocessor(cfg, 3, 25)
	if err != nil {
		t.Fatal(err)
	}
	pi := []float32{0, 3, 0}
	pq := []float32{0, 0, 6}
	p.denoisePlanes(pi, pq)
	if pi[1] != 1 || pq[1] != 2 {
		t.Fatalf("centre (%v, %v), want (1, 2)", pi[1], pq[1])
	}
	if pi[0] != 1.5 || pq[2] != 3 {
		t.Fatalf("edges (%v, %v), want (1.5, 3) (shrunk window)", pi[0], pq[2])
	}
	// Width 1 is a no-op.
	p, err = NewPreprocessor(DefaultConfig(), 3, 25)
	if err != nil {
		t.Fatal(err)
	}
	orig := []float32{1, 2, 3}
	ci := append([]float32(nil), orig...)
	cq := append([]float32(nil), orig...)
	p.denoisePlanes(ci, cq)
	for i := range orig {
		if ci[i] != orig[i] || cq[i] != orig[i] {
			t.Fatal("width-1 smoothing must not modify the frame")
		}
	}
}

func TestPreprocessMatrixLeavesInputIntact(t *testing.T) {
	m, _ := rf.NewFrameMatrix(60, 20, 25, 0.01)
	rng := rand.New(rand.NewSource(1))
	for k := range m.Data {
		for b := range m.Data[k] {
			m.Data[k][b] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	before := m.Data[10][5]
	out, err := PreprocessMatrix(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	if m.Data[10][5] != before {
		t.Fatal("PreprocessMatrix modified its input")
	}
	if out == m {
		t.Fatal("PreprocessMatrix must return a copy")
	}
}

func TestCascadeFilterImprovesSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 1024
	clean := make([]float64, n)
	for i := range clean {
		d := (float64(i) - 400) / 60
		clean[i] = math.Exp(-0.5 * d * d)
	}
	noisy := make([]float64, n)
	for i := range noisy {
		noisy[i] = clean[i] + rng.NormFloat64()*0.1
	}
	filtered, err := CascadeFilter(noisy, 26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	before := dsp.SNRdB(clean, noisy)
	after := dsp.SNRdB(clean, filtered)
	if after < before+6 {
		t.Fatalf("cascade gain %.1f dB (from %.1f to %.1f), want > 6 dB", after-before, before, after)
	}
}

func TestBackgroundSubtractorPartialPriming(t *testing.T) {
	// A capture shorter than the priming window must report the mean of
	// the frames actually seen, not a partial sum scaled by the full
	// window length (the old estimator skewed exactly this way).
	bg, err := NewBackgroundSubtractor(2, 25, 1) // primes over 25 frames
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f := planesOf([]complex128{complex(float64(i), 0), 4 - 2i})
		bg.ApplyPlanes(f.I, f.Q)
	}
	if bg.Primed() {
		t.Fatal("5 of 25 frames must not complete priming")
	}
	got := bg.Background()
	// Bin 0 saw 0..4, mean 2; bin 1 saw a constant.
	if cmplx.Abs(got[0]-2) > 1e-12 {
		t.Fatalf("partial background[0] = %v, want 2", got[0])
	}
	if cmplx.Abs(got[1]-(4-2i)) > 1e-12 {
		t.Fatalf("partial background[1] = %v, want (4-2i)", got[1])
	}
	// Empty subtractor reports zeros, not NaNs.
	bg.Reset()
	for _, v := range bg.Background() {
		if v != 0 {
			t.Fatalf("empty background must be zero, got %v", v)
		}
	}
}

func TestPreprocessorResetMidPriming(t *testing.T) {
	// Restarting the pipeline while the clutter estimate is still
	// priming must discard the partial accumulation entirely: the next
	// window re-primes from scratch and the frozen estimate reflects
	// only post-reset frames. A stale partial sum here would offset
	// every bin for the rest of the session.
	scenes := randomPlaneFrames(2, planarBins, 5)
	sceneA, sceneB := scenes[0], scenes[1]
	frame := iq.MakePlanes32(planarBins)
	load := func(scene iq.Planes32) {
		copy(frame.I, scene.I)
		copy(frame.Q, scene.Q)
	}
	for _, tc := range planarConfigs() {
		p, err := NewPreprocessor(tc.cfg, planarBins, 25)
		if err != nil {
			t.Fatal(err)
		}
		// 10 of the 25 priming frames (tau 1 s at 25 fps), then restart.
		for i := 0; i < 10; i++ {
			load(sceneA)
			if err := p.ProcessPlanes(frame.I, frame.Q); err != nil {
				t.Fatal(err)
			}
		}
		if p.background.Primed() {
			t.Fatalf("%s: 10 of 25 frames must not complete priming", tc.name)
		}
		p.Reset()
		if p.background.seen != 0 {
			t.Fatalf("%s: reset mid-prime left seen = %d, want 0", tc.name, p.background.seen)
		}
		// The full window must re-prime: every one of the next 25 frames
		// is part of the new estimate and comes back zeroed.
		for i := 0; i < 25; i++ {
			load(sceneB)
			if err := p.ProcessPlanes(frame.I, frame.Q); err != nil {
				t.Fatal(err)
			}
			for b := 0; b < planarBins; b++ {
				if v := frame.At(b); v != 0 {
					t.Fatalf("%s: re-priming frame %d bin %d = %v, want 0", tc.name, i, b, v)
				}
			}
		}
		if !p.background.Primed() {
			t.Fatalf("%s: 25 post-reset frames must complete priming", tc.name)
		}
		// The frozen estimate is denoised scene B alone — scene A's
		// partial sum must not leak in — so a scene-B frame cancels
		// exactly.
		load(sceneB)
		p.denoisePlanes(frame.I, frame.Q)
		for b, v := range p.background.Background() {
			if want := frame.At(b); cmplx.Abs(v-want) > 1e-12 {
				t.Fatalf("%s: background[%d] = %v, want %v (pre-reset frames leaked)", tc.name, b, v, want)
			}
		}
		load(sceneB)
		if err := p.ProcessPlanes(frame.I, frame.Q); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < planarBins; b++ {
			if v := frame.At(b); cmplx.Abs(v) > 1e-12 {
				t.Fatalf("%s: bin %d residual %v after reset and re-prime", tc.name, b, v)
			}
		}
	}
}

func TestPreprocessorProcessZeroAllocs(t *testing.T) {
	frame := randomPlaneFrames(1, planarBins, 7)[0]
	for _, tc := range planarConfigs() {
		p, err := NewPreprocessor(tc.cfg, planarBins, 25)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := p.ProcessPlanes(frame.I, frame.Q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: ProcessPlanes allocates %.1f objects/frame, want 0", tc.name, allocs)
		}
	}
}

// TestCascadeReuse checks the reusable form of the Fig. 7 cascade: a
// fused cascade designed once and applied repeatedly with caller-owned
// buffers matches the one-shot CascadeFilter and allocates nothing.
func TestCascadeReuse(t *testing.T) {
	c, err := dsp.NewFusedCascade(26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want, err := CascadeFilter(x, 26, 0.04, 50)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(x))
	for i := 0; i < 3; i++ {
		if err := c.ApplyInto(dst, x); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("sample %d = %g, want %g", i, dst[i], want[i])
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.ApplyInto(dst, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("FusedCascade.ApplyInto allocates %.1f objects/run, want 0", allocs)
	}
}

func TestCascadeFilterErrors(t *testing.T) {
	if _, err := CascadeFilter([]float64{1, 2}, 0, 0.1, 5); err == nil {
		t.Fatal("bad FIR order must be rejected")
	}
	if _, err := CascadeFilter([]float64{1, 2}, 8, 0.1, 0); err == nil {
		t.Fatal("bad smoothing window must be rejected")
	}
}
