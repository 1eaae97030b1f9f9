package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"blinkradar/internal/iq"
)

// seriesSets builds synthetic per-bin slow-time clouds:
// bin 0: thermal noise; bin 1: short vital-sign arc; bin 2: full-circle
// chest-like rotation; bin 3: strong static leak (near-constant). The
// returned BinSeries copies into buf, exercising the buffer-reuse
// contract of the selection fan-out.
func seriesSets(n int, seed int64) BinSeries {
	rng := rand.New(rand.NewSource(seed))
	noise := func(sigma float64) complex128 {
		return complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	bins := make([][]complex128, 4)
	for i := range bins {
		bins[i] = make([]complex128, n)
	}
	for k := 0; k < n; k++ {
		tt := float64(k) / 25
		bins[0][k] = noise(0.005)
		arcPhase := 0.35 * math.Sin(2*math.Pi*0.25*tt)
		bins[1][k] = complex(0.3, 0.4) + cmplx.Rect(1.2, arcPhase) + noise(0.005)
		bins[2][k] = cmplx.Rect(0.9, 2*math.Pi*0.25*tt*12) + noise(0.005)
		bins[3][k] = complex(2.5, -1) + noise(0.005)
	}
	return func(bin int, buf []complex128) []complex128 {
		if cap(buf) < n {
			buf = make([]complex128, n)
		}
		buf = buf[:n]
		copy(buf, bins[bin])
		return buf
	}
}

// at adapts a BinSeries for single-bin calls in tests.
func at(series BinSeries, bin int) []complex128 { return series(bin, nil) }

// covStats is the BinStats of a BinSeries: each bin's covariance
// computed from its gathered window.
func covStats(series BinSeries) BinStats {
	return func(bin int) (float64, float64, float64) { return iq.Covariance(at(series, bin)) }
}

// scoreBin scores one bin with a fresh residual buffer.
func scoreBin(bin int, series []complex128) BinScore {
	return scoreBinRes(bin, series, make([]float64, len(series)))
}

// ringVariance is the total 2-D variance of one bin's stored window,
// read from the ring's sliding sums.
func ringVariance(r *binRing, bin int) float64 {
	varI, varQ, _ := r.stats(bin)
	return varI + varQ
}

func TestScoreBinPrefersArc(t *testing.T) {
	series := seriesSets(300, 1)
	noiseScore := scoreBin(0, at(series, 0))
	arcScore := scoreBin(1, at(series, 1))
	chestScore := scoreBin(2, at(series, 2))
	staticScore := scoreBin(3, at(series, 3))
	if arcScore.Score <= noiseScore.Score {
		t.Fatalf("arc score %g not above noise %g", arcScore.Score, noiseScore.Score)
	}
	if arcScore.Score <= chestScore.Score {
		t.Fatalf("arc score %g not above full-rotation %g", arcScore.Score, chestScore.Score)
	}
	if arcScore.Score <= staticScore.Score {
		t.Fatalf("arc score %g not above static %g", arcScore.Score, staticScore.Score)
	}
	if arcScore.ArcQuality < 0.3 {
		t.Fatalf("arc quality %g too low for a clean arc", arcScore.ArcQuality)
	}
}

func TestSelectBinFindsArc(t *testing.T) {
	series := seriesSets(300, 2)
	best, candidates, err := SelectBin(series, covStats(series), 4, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if best.Bin != 1 {
		t.Fatalf("selected bin %d, want the arc bin 1 (candidates %+v)", best.Bin, candidates)
	}
	if len(candidates) == 0 {
		t.Fatal("no candidates returned")
	}
}

func TestSelectBinGuard(t *testing.T) {
	series := seriesSets(300, 3)
	// Guarding out everything must fail loudly.
	if _, _, err := SelectBin(series, covStats(series), 4, 4, 2); err == nil {
		t.Fatal("guard >= bins must be rejected")
	}
	// Guarding out the arc bin forces another winner.
	best, _, err := SelectBin(series, covStats(series), 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if best.Bin < 2 {
		t.Fatalf("guarded bin %d selected", best.Bin)
	}
}

func TestSelectBinRejectsNonPositiveTopK(t *testing.T) {
	series := seriesSets(300, 4)
	// Regression: topK <= 0 used to index an empty candidate slice and
	// panic; it must be a loud error instead.
	for _, topK := range []int{0, -1, -100} {
		if _, _, err := SelectBin(series, covStats(series), 4, 0, topK); err == nil {
			t.Fatalf("topK=%d must be rejected", topK)
		}
	}
}

func TestSelectBinSingleBinBeyondGuard(t *testing.T) {
	series := seriesSets(300, 5)
	// numBins == guard+1 leaves exactly one candidate; selection must
	// still work for any topK.
	best, candidates, err := SelectBin(series, covStats(series), 4, 3, 24)
	if err != nil {
		t.Fatal(err)
	}
	if best.Bin != 3 {
		t.Fatalf("selected bin %d, want the only unguarded bin 3", best.Bin)
	}
	if len(candidates) != 1 {
		t.Fatalf("got %d candidates, want 1", len(candidates))
	}
}

func TestSelectBinAllZeroVariance(t *testing.T) {
	// Identical constant samples in every bin: zero variance, zero
	// scores. Selection must fall back to the variance ranking without
	// panicking.
	flat := func(bin int, buf []complex128) []complex128 {
		if cap(buf) < 50 {
			buf = make([]complex128, 50)
		}
		buf = buf[:50]
		for i := range buf {
			buf[i] = complex(1, -2)
		}
		return buf
	}
	best, candidates, err := SelectBin(flat, covStats(flat), 6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best.Bin < 2 {
		t.Fatalf("guarded bin %d selected", best.Bin)
	}
	if best.Variance != 0 || best.Score != 0 {
		t.Fatalf("flat windows must yield zero variance and score, got %+v", best)
	}
	if len(candidates) != 3 {
		t.Fatalf("got %d candidates, want 3", len(candidates))
	}
}

// pushC pushes a complex frame through the ring's SoA planes, reusing
// per-call conversion buffers (tests only).
func pushC(r *binRing, frame []complex128) {
	pi := make([]float32, len(frame))
	pq := make([]float32, len(frame))
	for i, z := range frame {
		pi[i] = float32(real(z))
		pq[i] = float32(imag(z))
	}
	r.push(pi, pq)
}

// q32 quantises a complex value through the ring's float32 planes.
func q32(z complex128) complex128 {
	return complex(float64(float32(real(z))), float64(float32(imag(z))))
}

func TestBinRingSeriesInto(t *testing.T) {
	r := newBinRing(2, 0, 8)
	for i := 0; i < 5; i++ {
		pushC(r, []complex128{complex(float64(i), 0), complex(0, float64(i))})
	}
	buf := make([]complex128, 0, 8)
	got := r.seriesInto(1, buf)
	if len(got) != 5 {
		t.Fatalf("got %d samples, want 5", len(got))
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("seriesInto must reuse the provided buffer when it fits")
	}
	want := r.seriesInto(1, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBinRingSeriesOrderProperty(t *testing.T) {
	// The ring must return the most recent `window` frames in order,
	// for any push count.
	f := func(seed int64, rawPushes uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const bins, window = 3, 16
		r := newBinRing(bins, 0, window)
		pushes := int(rawPushes)%60 + 1
		history := make([][]complex128, 0, pushes)
		frame := make([]complex128, bins)
		for i := 0; i < pushes; i++ {
			for b := range frame {
				frame[b] = complex(rng.NormFloat64(), float64(i))
			}
			history = append(history, append([]complex128(nil), frame...))
			pushC(r, frame)
		}
		lo := len(history) - window
		if lo < 0 {
			lo = 0
		}
		for b := 0; b < bins; b++ {
			got := r.seriesInto(b, nil)
			want := history[lo:]
			if len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != q32(want[i][b]) {
					return false
				}
			}
			if r.latest(b) != q32(want[len(want)-1][b]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinRingReset(t *testing.T) {
	r := newBinRing(2, 0, 4)
	pushC(r, []complex128{1, 2})
	r.reset()
	if r.count != 0 || len(r.seriesInto(0, nil)) != 0 {
		t.Fatal("reset ring must be empty")
	}
	if r.latest(0) != 0 {
		t.Fatal("latest of empty ring must be zero")
	}
}

func TestBinRingVarianceMatchesBatch(t *testing.T) {
	// The O(1) sliding-sum variance must track the batch Variance2D of
	// the same stored window through fill, wrap-around and the
	// round-robin renormalization that starts once the ring is full.
	const bins, window = 5, 32
	rng := rand.New(rand.NewSource(31))
	r := newBinRing(bins, 0, window)
	frame := make([]complex128, bins)
	for push := 0; push < 4*window; push++ {
		for b := range frame {
			// Per-bin offsets exercise different cancellation regimes.
			off := complex(float64(b)*3, -float64(b))
			frame[b] = off + complex(rng.NormFloat64(), rng.NormFloat64())
		}
		pushC(r, frame)
		for b := 0; b < bins; b++ {
			series := r.seriesInto(b, nil)
			want := iq.Variance2D(series)
			got := ringVariance(r, b)
			var scale float64
			for _, z := range series {
				scale += real(z)*real(z) + imag(z)*imag(z)
			}
			scale /= float64(len(series))
			if math.Abs(got-want) > 1e-9*(1+scale) {
				t.Fatalf("push %d bin %d: sliding variance %g, batch %g", push, b, got, want)
			}
		}
	}
}

func TestBinRingVarianceAfterReset(t *testing.T) {
	r := newBinRing(2, 0, 4)
	for i := 0; i < 9; i++ {
		pushC(r, []complex128{complex(float64(i), 1), complex(-1, float64(i))})
	}
	r.reset()
	for b := 0; b < 2; b++ {
		if v := ringVariance(r, b); v != 0 {
			t.Fatalf("bin %d variance %g after reset", b, v)
		}
	}
	// Sums must restart cleanly, not inherit pre-reset residue.
	pushC(r, []complex128{2 + 2i, 3 - 1i})
	pushC(r, []complex128{4 + 4i, 5 - 3i})
	for b := 0; b < 2; b++ {
		want := iq.Variance2D(r.seriesInto(b, nil))
		if got := ringVariance(r, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("bin %d variance %g after reset+refill, want %g", b, got, want)
		}
	}
}

func TestBinRingSkipsGuardBins(t *testing.T) {
	// A ring that stores only bins >= guard answers every query on
	// those bins exactly as a full-width ring does, before and after
	// its window wraps.
	const bins, guard, window = 9, 3, 16
	full := newBinRing(bins, 0, window)
	guarded := newBinRing(bins, guard, window)
	rng := rand.New(rand.NewSource(8))
	frame := make([]complex128, bins)
	for push := 0; push < 2*window+5; push++ {
		for b := range frame {
			frame[b] = complex(rng.NormFloat64()+float64(b), rng.NormFloat64())
		}
		pushC(full, frame)
		pushC(guarded, frame)
		for b := guard; b < bins; b++ {
			vi, vq, c := full.stats(b)
			gi, gq, gc := guarded.stats(b)
			if vi != gi || vq != gq || c != gc {
				t.Fatalf("push %d bin %d: stats (%v %v %v), full ring (%v %v %v)", push, b, gi, gq, gc, vi, vq, c)
			}
			want := full.seriesInto(b, nil)
			got := guarded.seriesInto(b, nil)
			if len(got) != len(want) {
				t.Fatalf("push %d bin %d: %d samples, full ring %d", push, b, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("push %d bin %d sample %d: %v, full ring %v", push, b, i, got[i], want[i])
				}
			}
			if guarded.latest(b) != full.latest(b) {
				t.Fatalf("push %d bin %d: latest %v, full ring %v", push, b, guarded.latest(b), full.latest(b))
			}
		}
	}
	if got, want := len(guarded.bufI)+len(guarded.bufQ), 2*window*(bins-guard); got != want {
		t.Fatalf("guarded ring stores %d samples, want %d", got, want)
	}
}
