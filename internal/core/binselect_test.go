package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"blinkradar/internal/iq"
	"blinkradar/internal/rf"
	"blinkradar/internal/scenario"
)

// sceneRing pushes n frames of four synthetic per-bin slow-time clouds
// into a ring of window n that stores bins [lo, 4):
// bin 0: thermal noise; bin 1: short vital-sign arc; bin 2: full-circle
// chest-like rotation; bin 3: strong static leak (near-constant).
func sceneRing(n int, seed int64, lo int) *binRing {
	rng := rand.New(rand.NewSource(seed))
	noise := func(sigma float64) complex128 {
		return complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
	r := newBinRing(4, lo, n)
	frame := make([]complex128, 4)
	for k := 0; k < n; k++ {
		tt := float64(k) / 25
		frame[0] = noise(0.005)
		arcPhase := 0.35 * math.Sin(2*math.Pi*0.25*tt)
		frame[1] = complex(0.3, 0.4) + cmplx.Rect(1.2, arcPhase) + noise(0.005)
		frame[2] = cmplx.Rect(0.9, 2*math.Pi*0.25*tt*12) + noise(0.005)
		frame[3] = complex(2.5, -1) + noise(0.005)
		pushC(r, frame)
	}
	return r
}

// ringScore scores one bin of a ring over its stored window, with a
// fresh residual buffer.
func ringScore(r *binRing, bin int) binScore {
	series := r.seriesInto(bin, nil)
	return scoreBinRes(bin, series, make([]float64, len(series)))
}

// ringVariance is the total 2-D variance of one bin's stored window,
// read from the ring's covariance sums.
func ringVariance(r *binRing, bin int) float64 {
	varI, varQ, _ := r.stats(bin)
	return varI + varQ
}

// rankOracle is rankBins without the bound pruning: it arc-scores every
// one of the candidateTopK highest-variance bins, sorts the scores
// descending with the lower bin first on a tie, and falls back to the
// highest-variance bin when no score is positive.
func rankOracle(r *binRing) binScore {
	ranked := make([]binScore, r.width)
	for i := range ranked {
		ranked[i] = binScore{bin: r.lo + i, variance: ringVariance(r, r.lo+i)}
	}
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].variance != ranked[b].variance {
			return ranked[a].variance > ranked[b].variance
		}
		return ranked[a].bin < ranked[b].bin
	})
	scored := make([]binScore, min(candidateTopK, len(ranked)))
	for i := range scored {
		scored[i] = ringScore(r, ranked[i].bin)
	}
	sort.Slice(scored, func(a, b int) bool {
		if scored[a].score != scored[b].score {
			return scored[a].score > scored[b].score
		}
		return scored[a].bin < scored[b].bin
	})
	if scored[0].score <= 0 {
		return ranked[0]
	}
	return scored[0]
}

func TestScoreBinPrefersArc(t *testing.T) {
	r := sceneRing(300, 1, 0)
	noiseScore := ringScore(r, 0)
	arcScore := ringScore(r, 1)
	chestScore := ringScore(r, 2)
	staticScore := ringScore(r, 3)
	if arcScore.score <= noiseScore.score {
		t.Fatalf("arc score %g not above noise %g", arcScore.score, noiseScore.score)
	}
	if arcScore.score <= chestScore.score {
		t.Fatalf("arc score %g not above full-rotation %g", arcScore.score, chestScore.score)
	}
	if arcScore.score <= staticScore.score {
		t.Fatalf("arc score %g not above static %g", arcScore.score, staticScore.score)
	}
	if arcScore.arcQuality < 0.3 {
		t.Fatalf("arc quality %g too low for a clean arc", arcScore.arcQuality)
	}
}

func TestSelectBinFindsArc(t *testing.T) {
	best, ok := rankBins(new(selectScratch), sceneRing(300, 2, 0))
	if !ok || best.bin != 1 {
		t.Fatalf("selected %+v, want the arc bin 1", best)
	}
}

func TestSelectBinGuard(t *testing.T) {
	// A matrix with nothing beyond the guard bins must fail loudly.
	m, err := rf.NewFrameMatrix(ColdStartFrames, GuardBins, 25, 0.0107)
	if err != nil {
		t.Fatal(err)
	}
	if bin, err := SelectBinMatrix(m); err == nil {
		t.Fatalf("a matrix of %d bins selected bin %d; want an error", GuardBins, bin)
	}
	// A ring that does not store the arc bin forces another winner.
	best, ok := rankBins(new(selectScratch), sceneRing(300, 3, 2))
	if !ok || best.bin < 2 {
		t.Fatalf("guarded bin %d selected", best.bin)
	}
}

func TestSelectBinSingleBinBeyondGuard(t *testing.T) {
	// A ring storing one bin leaves fewer bins than candidateTopK;
	// selection must still pick it.
	best, ok := rankBins(new(selectScratch), sceneRing(300, 5, 3))
	if !ok || best.bin != 3 {
		t.Fatalf("selected bin %d, want the only stored bin 3", best.bin)
	}
}

func TestSelectBinAllZeroVariance(t *testing.T) {
	// Identical constant samples in every bin: zero variance, zero
	// scores. The ranking falls back to the variance ranking, whose tie
	// goes to the lowest stored bin, without panicking, and refuses it:
	// nothing varies, so nothing is selected.
	r := newBinRing(6, 2, 50)
	frame := make([]complex128, 6)
	for i := range frame {
		frame[i] = complex(1, -2)
	}
	for k := 0; k < 50; k++ {
		pushC(r, frame)
	}
	best, ok := rankBins(new(selectScratch), r)
	if ok || best != (binScore{bin: 2}) {
		t.Fatalf("flat windows ranked %+v (ok %v), want bin 2 with zero variance and score, refused", best, ok)
	}
	// The offline entry point and the detector refuse the same flat
	// window: an all-zero matrix selects no bin in either.
	for _, frames := range []int{25, 2 * ColdStartFrames} {
		m, err := rf.NewFrameMatrix(frames, 40, 25, 0.0107)
		if err != nil {
			t.Fatal(err)
		}
		if bin, err := SelectBinMatrix(m); bin != -1 || err == nil {
			t.Fatalf("%d all-zero frames: SelectBinMatrix = %d, %v; want -1 and an error", frames, bin, err)
		}
		det, err := NewDetector(DefaultConfig(), m.NumBins(), m.FrameRate)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range m.Data {
			if _, _, err := det.Feed(row); err != nil {
				t.Fatal(err)
			}
		}
		if det.Bin() != -1 {
			t.Fatalf("%d all-zero frames: detector selected bin %d", frames, det.Bin())
		}
	}
}

// TestRankBinsMatchesOracle checks the pruned ranking against the
// exhaustive oracle on synthetic rings wider than candidateTopK, before
// the ring fills, when it is exactly full and after it wraps. Some
// columns copy another bin, so equal variances and equal scores must
// both resolve to the lower bin. Every fifth ring holds only collinear
// bins, which fail the arc fit and score zero, so the variance fallback
// decides. One scratch serves every pass, as the pool lends grown
// scratch from one ring width to the next.
func TestRankBinsMatchesOracle(t *testing.T) {
	const window = 48
	scr := new(selectScratch)
	pruned, fallbacks := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lo := rng.Intn(4)
		bins := lo + candidateTopK + 1 + rng.Intn(24)
		// Each bin gets a scene: noise, a short arc, a full rotation, a
		// static leak or a line, at a random strength; a few copy
		// another bin.
		kind := make([]int, bins)
		amp := make([]float64, bins)
		phase := make([]float64, bins)
		copyOf := make([]int, bins)
		for b := range kind {
			kind[b] = rng.Intn(4)
			if seed%5 == 0 {
				kind[b] = 4
			}
			amp[b] = 0.2 + 2*rng.Float64()
			phase[b] = 2 * math.Pi * rng.Float64()
			copyOf[b] = -1
			if b > lo && rng.Intn(5) == 0 {
				copyOf[b] = lo + rng.Intn(b-lo)
			}
		}
		r := newBinRing(bins, lo, window)
		frame := make([]complex128, bins)
		for push := 1; push <= 2*window-5; push++ {
			tt := float64(push) / 25
			for b := range frame {
				if copyOf[b] >= 0 {
					frame[b] = frame[copyOf[b]]
					continue
				}
				n := complex(rng.NormFloat64()*0.01, rng.NormFloat64()*0.01)
				switch kind[b] {
				case 0:
					frame[b] = n * complex(amp[b], 0)
				case 1:
					frame[b] = cmplx.Rect(amp[b], phase[b]+0.35*math.Sin(2*math.Pi*0.25*tt)) + n
				case 2:
					frame[b] = cmplx.Rect(amp[b], phase[b]+2*math.Pi*3*tt) + n
				case 3:
					frame[b] = cmplx.Rect(amp[b], phase[b]) + n
				default:
					frame[b] = complex(amp[b]*math.Sin(2*math.Pi*0.25*tt+phase[b])+real(n), 0)
				}
			}
			pushC(r, frame)
			if push != window-17 && push != window && push != 2*window-5 {
				continue
			}
			got, ok := rankBins(scr, r)
			if want := rankOracle(r); !ok || got != want {
				t.Fatalf("seed %d, %d pushes: rankBins %+v (ok %v), oracle %+v", seed, push, got, ok, want)
			}
			// A candidate whose bound is below the winning score was
			// skipped unscored.
			for _, i := range scr.order {
				if scr.bounds[i] < got.score {
					pruned++
					break
				}
			}
			if got.score == 0 && got.variance > 0 {
				fallbacks++
			}
		}
	}
	if pruned == 0 || fallbacks == 0 {
		t.Fatalf("%d passes pruned a candidate and %d fell back on variance; the oracle must check both", pruned, fallbacks)
	}
	t.Logf("of 120 passes, %d pruned a candidate and %d fell back on variance", pruned, fallbacks)
}

// TestSelectBinMatrixMatchesColdStart checks the offline entry point
// against the detector: on a preprocessed matrix of a capture's first
// ColdStartFrames frames, SelectBinMatrix returns the bin a Detector
// selects at cold start over the same frames.
func TestSelectBinMatrixMatchesColdStart(t *testing.T) {
	for _, env := range []scenario.Environment{scenario.Lab, scenario.Driving} {
		for seed := int64(1); seed <= 4; seed++ {
			spec := scenario.DefaultSpec()
			spec.Environment = env
			spec.Seed = seed
			spec.Duration = 3
			capture, err := scenario.Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			head := *capture.Frames
			head.Data = head.Data[:ColdStartFrames]
			pre, err := PreprocessMatrix(&head)
			if err != nil {
				t.Fatal(err)
			}
			want, err := SelectBinMatrix(pre)
			if err != nil {
				t.Fatal(err)
			}
			det, err := NewDetector(DefaultConfig(), head.NumBins(), head.FrameRate)
			if err != nil {
				t.Fatal(err)
			}
			for k, row := range head.Data {
				if det.Bin() != -1 {
					t.Fatalf("%v seed %d: bin %d selected after %d frames, before cold start", env, seed, det.Bin(), k)
				}
				if _, _, err := det.Feed(row); err != nil {
					t.Fatal(err)
				}
			}
			if got := det.Bin(); got != want {
				t.Fatalf("%v seed %d: detector selected bin %d at cold start, SelectBinMatrix %d", env, seed, got, want)
			}
		}
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
