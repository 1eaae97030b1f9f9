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

// newPreprocessor builds a default-config preprocessor at 25 fps whose
// clutter estimate primes over tauSec seconds.
func newPreprocessor(t *testing.T, bins int, tauSec float64) *Preprocessor {
	t.Helper()
	p, err := NewPreprocessor(DefaultConfig(), bins, 25)
	if err != nil {
		t.Fatal(err)
	}
	p.primeFrames = max(int(tauSec*25), 1)
	return p
}

// background is the clutter estimate at full precision: the mean of
// the frames accumulated so far (zeros when none).
func background(p *Preprocessor) []complex128 {
	out := make([]complex128, len(p.sum))
	for i, s := range p.sum {
		if p.seen > 0 {
			out[i] = s / complex(float64(p.seen), 0)
		}
	}
	return out
}

// process runs one frame through p, failing the test on error.
func process(t *testing.T, p *Preprocessor, f iq.Planes32) {
	t.Helper()
	if err := p.ProcessPlanes(f.I, f.Q); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundSubtractorRemovesStatic(t *testing.T) {
	p := newPreprocessor(t, 3, 1)
	static := []complex128{1 + 2i, -3i, 0.5}
	frame := iq.MakePlanes32(3)
	// Prime (25 frames at 25 fps) then verify exact cancellation.
	for i := 0; i < 30; i++ {
		frame.FromComplex(static)
		process(t, p, frame)
	}
	for b := range static {
		if v := frame.At(b); cmplx.Abs(v) > 1e-12 {
			t.Fatalf("bin %d residual %v after static scene", b, v)
		}
	}
	// The clutter estimate matches the scene.
	for b, v := range background(p) {
		if cmplx.Abs(v-static[b]) > 1e-9 {
			t.Fatalf("background[%d] = %v, want %v", b, v, static[b])
		}
	}
	// A dynamic component passes through untouched.
	frame.FromComplex(static)
	frame.Q[1] += 0.25
	process(t, p, frame)
	if v := frame.At(1); cmplx.Abs(v-0.25i) > 1e-9 {
		t.Fatalf("dynamic component distorted: %v", v)
	}
}

func TestBackgroundSubtractorPrimingOutputsZero(t *testing.T) {
	p := newPreprocessor(t, 1, 1)
	frame := planesOf([]complex128{5 - 1i})
	process(t, p, frame)
	if frame.At(0) != 0 {
		t.Fatal("priming frames must be zeroed")
	}
}

func TestBackgroundSubtractorReset(t *testing.T) {
	p := newPreprocessor(t, 1, 0.2)
	for i := 0; i < 10; i++ {
		process(t, p, planesOf([]complex128{1}))
	}
	p.Reset()
	f := planesOf([]complex128{1})
	process(t, p, f)
	if f.At(0) != 0 {
		t.Fatal("reset subtractor must re-prime")
	}
}

func TestBackgroundSubtractorErrors(t *testing.T) {
	if _, err := NewPreprocessor(DefaultConfig(), 0, 25); err == nil {
		t.Fatal("zero bins must be rejected")
	}
	if _, err := NewPreprocessor(DefaultConfig(), 3, 0); err == nil {
		t.Fatal("zero rate must be rejected")
	}
	cfg := DefaultConfig()
	cfg.ThresholdK = 0
	if _, err := NewPreprocessor(cfg, 3, 25); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}

const planarBins = 64

// randomPlaneFrames draws n seeded frames of normally distributed I/Q
// planes.
func randomPlaneFrames(n, bins int, seed int64) []iq.Planes32 {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]iq.Planes32, n)
	for k := range frames {
		frames[k] = iq.MakePlanes32(bins)
		for b := 0; b < bins; b++ {
			frames[k].I[b] = float32(rng.NormFloat64())
			frames[k].Q[b] = float32(rng.NormFloat64())
		}
	}
	return frames
}

// TestProcessPlanesMatchesFloat64Reference holds the float32 planar
// preprocessor to DESIGN.md §13's budget — 1e-5 of the input peak —
// against a float64 reference: subtraction of the float64 mean of the
// priming frames, with the priming frames themselves zeroed.
func TestProcessPlanesMatchesFloat64Reference(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		p, err := NewPreprocessor(DefaultConfig(), planarBins, 25)
		if err != nil {
			t.Fatal(err)
		}
		prime := p.primeFrames
		frames := randomPlaneFrames(4*prime, planarBins, 11)
		var peak float64
		refI := make([][]float64, len(frames))
		refQ := make([][]float64, len(frames))
		for k, f := range frames {
			refI[k] = make([]float64, planarBins)
			refQ[k] = make([]float64, planarBins)
			for b := range refI[k] {
				refI[k][b], refQ[k][b] = float64(f.I[b]), float64(f.Q[b])
				peak = math.Max(peak, math.Max(math.Abs(refI[k][b]), math.Abs(refQ[k][b])))
			}
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

func TestPreprocessorFrameSizeCheck(t *testing.T) {
	p, err := NewPreprocessor(DefaultConfig(), planarBins, 25)
	if err != nil {
		t.Fatal(err)
	}
	good := make([]float32, planarBins)
	short := make([]float32, planarBins-1)
	if err := p.ProcessPlanes(short, short); err == nil {
		t.Fatal("short frame must be rejected")
	}
	if err := p.ProcessPlanes(good, short); err == nil {
		t.Fatal("mismatched planes must be rejected")
	}
	if err := p.ProcessPlanes(good, good); err != nil {
		t.Fatalf("well-sized frame rejected: %v", err)
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
	out, err := PreprocessMatrix(m)
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
	filtered := CascadeFilter(noisy)
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
	p := newPreprocessor(t, 2, 1) // primes over 25 frames
	for i := 0; i < 5; i++ {
		process(t, p, planesOf([]complex128{complex(float64(i), 0), 4 - 2i}))
	}
	if p.seen >= p.primeFrames {
		t.Fatal("5 of 25 frames must not complete priming")
	}
	got := background(p)
	// Bin 0 saw 0..4, mean 2; bin 1 saw a constant.
	if cmplx.Abs(got[0]-2) > 1e-12 {
		t.Fatalf("partial background[0] = %v, want 2", got[0])
	}
	if cmplx.Abs(got[1]-(4-2i)) > 1e-12 {
		t.Fatalf("partial background[1] = %v, want (4-2i)", got[1])
	}
	// Empty subtractor reports zeros, not NaNs.
	p.Reset()
	for _, v := range background(p) {
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
	p := newPreprocessor(t, planarBins, 1)
	// 10 of the 25 priming frames (tau 1 s at 25 fps), then restart.
	for i := 0; i < 10; i++ {
		load(sceneA)
		process(t, p, frame)
	}
	if p.seen >= p.primeFrames {
		t.Fatal("10 of 25 frames must not complete priming")
	}
	p.Reset()
	if p.seen != 0 {
		t.Fatalf("reset mid-prime left seen = %d, want 0", p.seen)
	}
	// The full window must re-prime: every one of the next 25 frames
	// is part of the new estimate and comes back zeroed.
	for i := 0; i < 25; i++ {
		load(sceneB)
		process(t, p, frame)
		for b := 0; b < planarBins; b++ {
			if v := frame.At(b); v != 0 {
				t.Fatalf("re-priming frame %d bin %d = %v, want 0", i, b, v)
			}
		}
	}
	if p.seen < p.primeFrames {
		t.Fatal("25 post-reset frames must complete priming")
	}
	// The frozen estimate is scene B alone — scene A's partial sum must
	// not leak in — so a scene-B frame cancels exactly.
	for b, v := range background(p) {
		if want := sceneB.At(b); cmplx.Abs(v-want) > 1e-12 {
			t.Fatalf("background[%d] = %v, want %v (pre-reset frames leaked)", b, v, want)
		}
	}
	load(sceneB)
	process(t, p, frame)
	for b := 0; b < planarBins; b++ {
		if v := frame.At(b); cmplx.Abs(v) > 1e-12 {
			t.Fatalf("bin %d residual %v after reset and re-prime", b, v)
		}
	}
}

func TestPreprocessorProcessZeroAllocs(t *testing.T) {
	frame := randomPlaneFrames(1, planarBins, 7)[0]
	p := newPreprocessor(t, planarBins, 1)
	allocs := testing.AllocsPerRun(200, func() {
		if err := p.ProcessPlanes(frame.I, frame.Q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ProcessPlanes allocates %.1f objects/frame, want 0", allocs)
	}
}

// TestCascadeReuse checks the reusable form of the Fig. 7 cascade: a
// fused cascade designed once and applied repeatedly with caller-owned
// buffers matches the one-shot CascadeFilter and allocates nothing.
func TestCascadeReuse(t *testing.T) {
	c := dsp.NewFusedCascade()
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := CascadeFilter(x)
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
