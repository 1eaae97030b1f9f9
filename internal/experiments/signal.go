package experiments

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"

	"blinkradar/internal/core"
	"blinkradar/internal/dsp"
	"blinkradar/internal/iq"
	"blinkradar/internal/physio"
	"blinkradar/internal/report"
	"blinkradar/internal/rf"
	"blinkradar/internal/scenario"
)

// Table1Result reproduces Table I: per-participant one-minute blink
// counts at 10:00 (rested) and 22:00 (drowsy).
type Table1Result struct {
	// Morning and Night hold one blink count per participant.
	Morning, Night []int
}

// table1 samples the blink process for eight participants in both
// states, as in the paper's feasibility study (Section II-C). It is
// seeded with 1, and each seeded figure below with its figure number.
func table1() (Table1Result, error) {
	const participants, seed = 8, 1
	var res Table1Result
	for id := 1; id <= participants; id++ {
		sub := physio.NewSubject(id)
		rng := rand.New(rand.NewSource(seed + int64(id)))
		morning, err := physio.GenerateBlinks(sub.Stats(physio.Awake), 60, rng)
		if err != nil {
			return res, err
		}
		night, err := physio.GenerateBlinks(sub.Stats(physio.Drowsy), 60, rng)
		if err != nil {
			return res, err
		}
		res.Morning = append(res.Morning, len(morning))
		res.Night = append(res.Night, len(night))
	}
	return res, nil
}

// String renders the two table rows.
func (r Table1Result) String() string {
	header := []string{"participant"}
	rowM := []string{"10:00 (awake)"}
	rowN := []string{"22:00 (drowsy)"}
	for i := range r.Morning {
		header = append(header, fmt.Sprintf("%d", i+1))
		rowM = append(rowM, fmt.Sprintf("%d", r.Morning[i]))
		rowN = append(rowN, fmt.Sprintf("%d", r.Night[i]))
	}
	return Table([]string{"Table I: blinks per minute"}, nil) +
		Table(header, [][]string{rowM, rowN})
}

// Fig5Result describes the transmitted pulse in time and frequency.
type Fig5Result struct {
	// Samples is the sample count of the rendered waveform.
	Samples int
	// PeakAmplitude is the waveform peak.
	PeakAmplitude float64
	// SpectrumPeakHz is the measured spectral peak (should sit at the
	// 7.3 GHz carrier).
	SpectrumPeakHz float64
	// BandwidthHz is the measured -10 dB bandwidth (nominal 1.4 GHz).
	BandwidthHz float64
}

// fig5 renders Eq. 1-3's pulse at 64 GS/s and measures its spectrum.
func fig5() (Fig5Result, error) {
	pulse := rf.NewPulse()
	const fs = 64e9
	w, err := pulse.Waveform(fs)
	if err != nil {
		return Fig5Result{}, err
	}
	var peak float64
	for _, v := range w {
		if a := math.Abs(v); a > peak {
			peak = a
		}
	}
	// Zero-pad for frequency resolution.
	padded := make([]float64, dsp.NextPow2(8*len(w)))
	copy(padded, w)
	mag := dsp.MagnitudeSpectrum(padded)
	freqs := dsp.FFTFreq(len(padded), fs)
	half := len(padded) / 2
	peakIdx := dsp.ArgMax(mag[:half])
	peakMag := mag[peakIdx]
	// -10 dB points around the peak.
	thr := peakMag * math.Pow(10, -10.0/20)
	lo, hi := peakIdx, peakIdx
	for lo > 0 && mag[lo] >= thr {
		lo--
	}
	for hi < half-1 && mag[hi] >= thr {
		hi++
	}
	return Fig5Result{
		Samples:        len(w),
		PeakAmplitude:  peak,
		SpectrumPeakHz: freqs[peakIdx],
		BandwidthHz:    freqs[hi] - freqs[lo],
	}, nil
}

// String renders the measured pulse characteristics.
func (r Fig5Result) String() string {
	return fmt.Sprintf("Fig 5: pulse %d samples, peak %.2f; spectrum peak %.2f GHz (nominal 7.30), -10 dB bandwidth %.2f GHz (nominal 1.40)",
		r.Samples, r.PeakAmplitude, r.SpectrumPeakHz/1e9, r.BandwidthHz/1e9)
}

// Fig6Result is the static range profile with its multipath peaks.
type Fig6Result struct {
	// Profile is the mean power per range bin.
	Profile []float64
	// BinSpacing is the bin spacing in metres.
	BinSpacing float64
	// Peaks are the detected profile peaks, nearest first.
	Peaks []dsp.Peak
}

// fig6 renders a static in-cabin scene and extracts the range profile:
// the direct antenna path, the driver's face, and surrounding clutter
// should appear as distinct peaks (Fig. 6b).
func fig6() (Fig6Result, error) {
	spec := scenario.DefaultSpec()
	spec.Seed = 6
	spec.Duration = 10
	cap, err := scenario.Generate(spec)
	if err != nil {
		return Fig6Result{}, err
	}
	profile := cap.Frames.MeanPowerPerBin()
	_, maxPower := dsp.MinMax(profile)
	peaks := dsp.FindPeaks(profile, maxPower*0.003, 6)
	return Fig6Result{
		Profile:    profile,
		BinSpacing: cap.Frames.BinSpacing,
		Peaks:      peaks,
	}, nil
}

// String lists the dominant peaks with their ranges.
func (r Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6b: range profile peaks (bin spacing %.1f mm):\n", r.BinSpacing*1000)
	for _, p := range r.Peaks {
		fmt.Fprintf(&b, "  range %.2f m  power %.3f\n", (float64(p.Index)+0.5)*r.BinSpacing, p.Value)
	}
	return b.String()
}

// Fig7Result compares SNR before and after the noise-reduction cascade.
type Fig7Result struct {
	// SNRBeforeDB and SNRAfterDB measure the noisy and filtered
	// waveforms against the clean reference.
	SNRBeforeDB, SNRAfterDB float64
}

// Fig7Waveforms builds the clean fast-time baseband profile used by
// Fig. 7 (a few Gaussian echoes, as in the paper's received signal) and
// its noise-corrupted counterpart. Exposed so benchmarks can construct
// the waveforms once and time only the filtering cascade.
func Fig7Waveforms(seed int64) (clean, noisy []float64) {
	rng := rand.New(rand.NewSource(seed))
	const n = 2048
	clean = make([]float64, n)
	// Echoes at increasing delay with decreasing strength.
	for _, e := range []struct{ pos, width, amp float64 }{
		{300, 40, 1.0}, {700, 50, 0.55}, {1200, 60, 0.3}, {1600, 70, 0.18},
	} {
		for i := range clean {
			d := (float64(i) - e.pos) / e.width
			clean[i] += e.amp * math.Exp(-0.5*d*d)
		}
	}
	noisy = make([]float64, n)
	for i := range noisy {
		noisy[i] = clean[i] + rng.NormFloat64()*0.12
	}
	return clean, noisy
}

// fig7 builds a clean fast-time baseband profile (a few Gaussian
// echoes, as in Fig. 7's received signal), corrupts it with noise, and
// applies the paper's cascade: order-26 Hamming FIR plus a 50-point
// smoothing filter.
func fig7() Fig7Result {
	clean, noisy := Fig7Waveforms(7)
	return Fig7Result{
		SNRBeforeDB: dsp.SNRdB(clean, noisy),
		SNRAfterDB:  dsp.SNRdB(clean, core.CascadeFilter(noisy)),
	}
}

// String reports the SNR gain.
func (r Fig7Result) String() string {
	return fmt.Sprintf("Fig 7: SNR %.1f dB -> %.1f dB after cascade (gain %.1f dB)",
		r.SNRBeforeDB, r.SNRAfterDB, r.SNRAfterDB-r.SNRBeforeDB)
}

// Fig8Result quantifies background subtraction.
type Fig8Result struct {
	// StaticPowerBefore and StaticPowerAfter are the total power in
	// clutter-dominated bins before and after subtraction.
	StaticPowerBefore, StaticPowerAfter float64
	// DynamicPowerBefore and DynamicPowerAfter are the face-bin
	// variance (the motion signal) before and after: it must survive.
	DynamicPowerBefore, DynamicPowerAfter float64
}

// SuppressionDB is the static clutter suppression achieved.
func (r Fig8Result) SuppressionDB() float64 {
	if r.StaticPowerAfter == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(r.StaticPowerBefore/r.StaticPowerAfter)
}

// fig8 renders a cabin scene and measures per-bin static power before
// and after the loopback background filter.
func fig8() (Fig8Result, error) {
	spec := scenario.DefaultSpec()
	spec.Seed = 8
	spec.Duration = 30
	cap, err := scenario.Generate(spec)
	if err != nil {
		return Fig8Result{}, err
	}
	after, err := core.PreprocessMatrix(cap.Frames)
	if err != nil {
		return Fig8Result{}, err
	}
	// Static bins: direct path region; dynamic: the eye's bin.
	staticBins := []int{0, 1, 2}
	var res Fig8Result
	// Skip the priming frames in the "after" accounting.
	skip := int(core.BackgroundTauSec*cap.Frames.FrameRate) + 1
	for _, b := range staticBins {
		for k, frame := range cap.Frames.Data {
			p := cmplx.Abs(frame[b])
			res.StaticPowerBefore += p * p
			if k >= skip {
				q := cmplx.Abs(after.Data[k][b])
				res.StaticPowerAfter += q * q
			}
		}
	}
	res.DynamicPowerBefore = iq.Variance2D(cap.Frames.SlowTime(cap.EyeBin))
	res.DynamicPowerAfter = iq.Variance2D(after.SlowTime(cap.EyeBin)[skip:])
	return res, nil
}

// String reports suppression and signal survival.
func (r Fig8Result) String() string {
	return fmt.Sprintf("Fig 8: static clutter suppressed %.1f dB; eye-bin motion variance %.4f -> %.4f (survives)",
		r.SuppressionDB(), r.DynamicPowerBefore, r.DynamicPowerAfter)
}

// Fig9Result captures the I/Q signature of a single blink.
type Fig9Result struct {
	// ClosingAmpDelta is the amplitude change from the eye-open
	// baseline to full closure; OpeningAmpDelta the reverse.
	ClosingAmpDelta, OpeningAmpDelta float64
	// PhaseDeltaRad is the open-to-closed phase change.
	PhaseDeltaRad float64
	// Trajectory is the blink's I/Q samples at the eye bin.
	Trajectory []complex128
}

// fig9 places one long blink in an otherwise still capture and measures
// the amplitude and phase transitions of closing versus opening
// (Section II-B / Fig. 9).
func fig9() (Fig9Result, error) {
	spec := scenario.DefaultSpec()
	spec.Seed = 9
	spec.Duration = 20
	cap, err := scenario.Generate(spec)
	if err != nil {
		return Fig9Result{}, err
	}
	if len(cap.Truth) == 0 {
		return Fig9Result{}, fmt.Errorf("experiments: capture has no blinks")
	}
	// Choose the blink farthest from the capture edges.
	blink := cap.Truth[0]
	bestMargin := -1.0
	for _, b := range cap.Truth {
		margin := math.Min(b.Start, spec.Duration-b.End())
		if margin > bestMargin {
			bestMargin = margin
			blink = b
		}
	}
	fps := cap.Frames.FrameRate
	z := cap.Frames.SlowTime(cap.EyeBin)
	at := func(t float64) complex128 {
		k := int(t * fps)
		if k < 0 {
			k = 0
		}
		if k >= len(z) {
			k = len(z) - 1
		}
		return z[k]
	}
	open1 := at(blink.Start - 0.2)
	closed := at(blink.Start + 0.45*blink.Duration)
	open2 := at(blink.End() + 0.2)
	lo := int((blink.Start - 0.3) * fps)
	hi := int((blink.End() + 0.3) * fps)
	if lo < 0 {
		lo = 0
	}
	if hi > len(z) {
		hi = len(z)
	}
	return Fig9Result{
		ClosingAmpDelta: cmplx.Abs(closed) - cmplx.Abs(open1),
		OpeningAmpDelta: cmplx.Abs(open2) - cmplx.Abs(closed),
		PhaseDeltaRad:   phaseDiff(closed, open1),
		Trajectory:      append([]complex128(nil), z[lo:hi]...),
	}, nil
}

// phaseDiff returns the wrapped phase difference arg(a)-arg(b).
func phaseDiff(a, b complex128) float64 {
	d := cmplx.Phase(a) - cmplx.Phase(b)
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	for d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// String reports the closing/opening signature.
func (r Fig9Result) String() string {
	return fmt.Sprintf("Fig 9: closing amp delta %+.3f, opening amp delta %+.3f (opposite), phase delta %+.2f rad",
		r.ClosingAmpDelta, r.OpeningAmpDelta, r.PhaseDeltaRad)
}

// Fig10Result validates variance-based eye-bin identification.
type Fig10Result struct {
	// SelectedBin is the pipeline's choice; TrueEyeBin the ground
	// truth.
	SelectedBin, TrueEyeBin int
	// EyeVariance and BestNoiseVariance compare the eye bin's 2-D
	// variance against the strongest pure-noise bin.
	EyeVariance, BestNoiseVariance float64
	// EyeArcExtentRad is the angular extent of the eye bin's
	// trajectory: embedded interference traces an arc even without
	// blinks.
	EyeArcExtentRad float64
	// CorrectWithinBins is |SelectedBin - TrueEyeBin|.
	CorrectWithinBins int
	// InFaceRegion reports whether the selected bin lies within the
	// face region (10 cm of the eye): without blinks every head bin
	// carries the same embedded interference, so any of them is a
	// valid observation position.
	InFaceRegion bool
}

// fig10 renders a blink-free capture segment (embedded interference
// only) and checks that variance-based selection still finds the eye.
func fig10() (Fig10Result, error) {
	spec := scenario.DefaultSpec()
	spec.Seed = 10
	spec.Duration = 30
	// No blinks at all: selection must work from respiration/BCG alone.
	spec.Subject.AwakeStats.RatePerMin = 0.2
	spec.Subject.AwakeStats.LongGapProb = 0
	cap, err := scenario.Generate(spec)
	if err != nil {
		return Fig10Result{}, err
	}
	pre, err := core.PreprocessMatrix(cap.Frames)
	if err != nil {
		return Fig10Result{}, err
	}
	best, err := core.SelectBinMatrix(pre)
	if err != nil {
		return Fig10Result{}, err
	}
	skip := int(core.BackgroundTauSec*cap.Frames.FrameRate) + 1
	eyeSeries := pre.SlowTime(cap.EyeBin)[skip:]
	eyeVar := iq.Variance2D(eyeSeries)
	// Strongest bin far from any reflector (>1.3 m).
	noiseVar := 0.0
	firstNoise := pre.DistanceBin(1.35)
	for b := firstNoise; b < pre.NumBins(); b++ {
		if v := iq.Variance2D(pre.SlowTime(b)[skip:]); v > noiseVar {
			noiseVar = v
		}
	}
	var extent float64
	if c, err := iq.FitCirclePratt(eyeSeries); err == nil {
		extent = iq.AngularExtent(eyeSeries, c.Center)
	}
	diff := best.Bin - cap.EyeBin
	if diff < 0 {
		diff = -diff
	}
	return Fig10Result{
		SelectedBin:       best.Bin,
		TrueEyeBin:        cap.EyeBin,
		EyeVariance:       eyeVar,
		BestNoiseVariance: noiseVar,
		EyeArcExtentRad:   extent,
		CorrectWithinBins: diff,
		InFaceRegion:      float64(diff)*pre.BinSpacing <= 0.10,
	}, nil
}

// String reports the selection outcome.
func (r Fig10Result) String() string {
	return fmt.Sprintf("Fig 10: selected bin %d (true eye bin %d, off by %d, face region: %v); eye var %.4f vs best noise var %.6f (x%.0f); arc extent %.2f rad",
		r.SelectedBin, r.TrueEyeBin, r.CorrectWithinBins, r.InFaceRegion, r.EyeVariance, r.BestNoiseVariance, r.EyeVariance/math.Max(r.BestNoiseVariance, 1e-12), r.EyeArcExtentRad)
}

// Fig11Result is the real-time detection trace of Fig. 11.
type Fig11Result struct {
	// Distance is the distance-from-viewing-position waveform.
	Distance []float64
	// Threshold is the per-frame LEVD threshold.
	Threshold []float64
	// FrameRate is the trace sample rate.
	FrameRate float64
	// Detections are the detected blink times in seconds.
	Detections []float64
	// TruthTimes are the ground-truth blink times.
	TruthTimes []float64
}

// fig11 runs the real-time detector over a short capture and exports
// the annotated waveform.
func fig11() (Fig11Result, error) {
	spec := scenario.DefaultSpec()
	spec.Seed = 11
	spec.Duration = 40
	cap, err := scenario.Generate(spec)
	if err != nil {
		return Fig11Result{}, err
	}
	det, err := core.NewDetector(core.DefaultConfig(), cap.Frames.NumBins(), cap.Frames.FrameRate)
	if err != nil {
		return Fig11Result{}, err
	}
	det.EnableTrace()
	var res Fig11Result
	for _, frame := range cap.Frames.Data {
		ev, ok, err := det.Feed(frame)
		if err != nil {
			return Fig11Result{}, err
		}
		if ok {
			res.Detections = append(res.Detections, ev.Time)
		}
	}
	res.Distance, res.Threshold = det.Trace()
	res.FrameRate = cap.Frames.FrameRate
	for _, b := range cap.Truth {
		res.TruthTimes = append(res.TruthTimes, b.Start)
	}
	return res, nil
}

// String summarises the trace and renders the annotated waveform.
func (r Fig11Result) String() string {
	marks := make([]int, 0, len(r.Detections))
	for _, t := range r.Detections {
		marks = append(marks, int(t*r.FrameRate))
	}
	return fmt.Sprintf("Fig 11: %.0f s trace, %d ground-truth blinks, %d detections at %v\n",
		float64(len(r.Distance))/r.FrameRate, len(r.TruthTimes), len(r.Detections), compactTimes(r.Detections)) +
		report.WaveformStrip("", r.Distance, marks, 72, 10)
}

func compactTimes(ts []float64) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = fmt.Sprintf("%.1fs", t)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
