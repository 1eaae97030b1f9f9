// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus microbenchmarks of the pipeline's hot paths.
// BenchmarkExperiments runs each entry of experiments.All() as a
// sub-benchmark, the same code cmd/experiments runs:
//
//	go test -bench=Experiments -benchmem
//
// The heavyweight population sweeps iterate full synthetic captures;
// expect seconds per bench.
package blinkradar_test

import (
	"math"
	"math/rand"
	"testing"

	"blinkradar"
	"blinkradar/internal/core"
	"blinkradar/internal/dsp"
	"blinkradar/internal/experiments"
	"blinkradar/internal/iq"
)

// benchCfg is the paper-faithful pipeline configuration shared by the
// microbenches.
var benchCfg = core.DefaultConfig()

// BenchmarkExperiments times each report entry. Every iteration takes a
// fresh list, whose session cache starts empty, so an entry's time is
// its full work and not a cache hit on sessions an earlier entry scored.
func BenchmarkExperiments(b *testing.B) {
	for k, e := range experiments.All() {
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.All()[k].Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7NoiseReduction times the noise-reduction cascade itself:
// the Fig. 7 waveforms are built once outside the timed loop and a
// reusable cascade, its scratch grown by one untimed call, filters them
// into a caller-owned buffer, so the loop body is the figure's
// per-profile denoising cost.
func BenchmarkFig7NoiseReduction(b *testing.B) {
	clean, noisy := experiments.Fig7Waveforms(1)
	cascade := dsp.NewFusedCascade()
	filtered := make([]float64, len(noisy))
	if err := cascade.ApplyInto(filtered, noisy); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cascade.ApplyInto(filtered, noisy); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(dsp.SNRdB(clean, filtered)-dsp.SNRdB(clean, noisy), "dB-gain")
}

// BenchmarkFig10BinSelection times eye-bin selection itself: the
// blink-free capture is generated and preprocessed once outside the
// timed loop, so the loop body narrows the trailing selection window
// into the detector's selection ring and ranks it with the detector's
// own function, the variance-plus-arc-scoring pass the streaming
// detector pays at each (re)selection.
func BenchmarkFig10BinSelection(b *testing.B) {
	spec := blinkradar.DefaultSpec()
	spec.Seed = 1
	spec.Duration = 30
	// As in Fig. 10: essentially blink-free, selection must work from
	// the embedded interference alone.
	spec.Subject.AwakeStats.RatePerMin = 0.2
	spec.Subject.AwakeStats.LongGapProb = 0
	capture, err := blinkradar.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := core.PreprocessMatrix(capture.Frames)
	if err != nil {
		b.Fatal(err)
	}
	var best int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best, err = core.SelectBinMatrix(pre)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	diff := best - capture.EyeBin
	if diff < 0 {
		diff = -diff
	}
	b.ReportMetric(float64(diff), "bins-off")
}

// --- Microbenchmarks of the pipeline hot paths ---

// benchCapture caches one capture for the micro benches.
func benchCapture(b *testing.B, duration float64) *blinkradar.Capture {
	b.Helper()
	spec := blinkradar.DefaultSpec()
	spec.Duration = duration
	spec.Seed = 1234
	capture, err := blinkradar.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return capture
}

func BenchmarkScenarioGenerate(b *testing.B) {
	spec := blinkradar.DefaultSpec()
	spec.Duration = 60
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Seed = int64(i)
		if _, err := blinkradar.Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorFeedFrame times the production per-frame cost: the
// wire codec decodes float32 I/Q planes and the fleet path feeds them
// straight through FeedPlanes, so the planes are pre-split outside the
// timed loop exactly as DecodePlanes would hand them over. The legacy
// complex boundary (which pays an extra narrowing copy) is measured
// separately by BenchmarkDetectorFeedComplex.
func BenchmarkDetectorFeedFrame(b *testing.B) {
	capture := benchCapture(b, 120)
	det, err := blinkradar.NewDetector(benchCfg, capture.Frames.NumBins(), capture.Frames.FrameRate)
	if err != nil {
		b.Fatal(err)
	}
	frames := capture.Frames.Data
	bins := capture.Frames.NumBins()
	planeI := make([][]float32, len(frames))
	planeQ := make([][]float32, len(frames))
	for k, frame := range frames {
		planeI[k] = make([]float32, bins)
		planeQ[k] = make([]float32, bins)
		for i, z := range frame {
			planeI[k][i] = float32(real(z))
			planeQ[k][i] = float32(imag(z))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(frames)
		if _, _, err := det.FeedPlanes(planeI[k], planeQ[k]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorFeedComplex is the compatibility []complex128 Feed
// boundary: FeedPlanes plus one narrowing split of the frame.
func BenchmarkDetectorFeedComplex(b *testing.B) {
	capture := benchCapture(b, 120)
	det, err := blinkradar.NewDetector(benchCfg, capture.Frames.NumBins(), capture.Frames.FrameRate)
	if err != nil {
		b.Fatal(err)
	}
	frames := capture.Frames.Data
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := det.Feed(frames[i%len(frames)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOfflineDetect60s(b *testing.B) {
	capture := benchCapture(b, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := blinkradar.Detect(benchCfg, capture.Frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreprocessorProcess isolates the per-frame preprocessing
// (background subtraction) cost on the float32 I/Q planes the detector
// feeds it; it must run allocation-free.
func BenchmarkPreprocessorProcess(b *testing.B) {
	capture := benchCapture(b, 20)
	bins := capture.Frames.NumBins()
	p, err := core.NewPreprocessor(benchCfg, bins, capture.Frames.FrameRate)
	if err != nil {
		b.Fatal(err)
	}
	frames := make([]iq.Planes32, len(capture.Frames.Data))
	for k, f := range capture.Frames.Data {
		frames[k] = iq.MakePlanes32(bins)
		frames[k].FromComplex(f)
	}
	frame := iq.MakePlanes32(bins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := frames[i%len(frames)]
		copy(frame.I, src.I)
		copy(frame.Q, src.Q)
		if err := p.ProcessPlanes(frame.I, frame.Q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlidingMoments measures the tracker's steady-state moment
// kernel at the deployed window size: one push/evict pair per frame, an
// O(1) Pratt solve from the cached sums every refit interval, and the
// periodic exact renormalization pass, all amortised into the per-frame
// figure. The batch fit this replaces costs O(window) per refit.
func BenchmarkSlidingMoments(b *testing.B) {
	window := core.FitWindowFrames
	refitEvery := core.DefaultConfig().RefitIntervalFrames
	win := make([]complex128, window)
	for i := range win {
		// A noisy arc, the geometry the tracker actually sees.
		th := 0.4 * math.Sin(2*math.Pi*float64(i)/float64(window))
		win[i] = complex(2+math.Cos(th)+1e-3*float64(i%7), 1+math.Sin(th))
	}
	mom := iq.NewSlidingMoments(window)
	for _, z := range win {
		mom.Push(z)
	}
	pos := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mom.Evict(win[pos])
		mom.Push(win[pos])
		pos++
		if pos == window {
			pos = 0
		}
		if mom.NeedsRenorm() {
			mom.Reset()
			mom.Accumulate(win)
		}
		if i%refitEvery == 0 {
			if _, err := mom.FitPratt(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamingMedian measures the motion-restart gate's median
// kernel at the deployed window size (two seconds of frames): one
// sorted-ring remove/insert plus a median read per frame.
func BenchmarkStreamingMedian(b *testing.B) {
	capacity := core.ColdStartFrames // ~2 s of frames
	if capacity%2 == 0 {
		capacity++
	}
	med, err := dsp.NewStreamingMedian(capacity)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for i := 0; i < capacity; i++ {
		med.Push(vals[i])
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med.Push(vals[i%len(vals)])
		sink += med.Median()
	}
	if math.IsNaN(sink) {
		b.Fatal("median went NaN")
	}
}
