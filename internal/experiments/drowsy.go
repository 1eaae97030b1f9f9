package experiments

import (
	"fmt"

	"blinkradar/internal/core"
	"blinkradar/internal/physio"
	"blinkradar/internal/scenario"
)

// drowsySession runs one long capture in the given state, slices the
// detected blinks into windows of windowSec, and splits them into
// calibration and evaluation halves. The split is within-session, as in
// the paper's deployment: each participant's training data is recorded
// in the same installation the system then monitors.
func (c *sessionCache) drowsySession(subjectID int, state physio.State, windowSec float64) (train, test []core.WindowFeatures, err error) {
	// Long enough for a warm-up window plus at least six usable
	// windows at the requested length.
	durationSec := 12 * 60.0
	if need := windowSec*7 + 60; need > durationSec {
		durationSec = need
	}
	spec := SessionSpec(subjectID, 0, scenario.Driving, func(s *scenario.Spec) {
		s.State = state
		s.Duration = durationSec
	})
	// Distinguish state in the seed so awake/drowsy captures differ.
	if state == physio.Drowsy {
		spec.Seed ^= 0x5a5a5a
	}
	out, err := c.session(spec, core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	windows, err := core.ExtractWindows(out.Events, durationSec, windowSec)
	if err != nil {
		return nil, nil, err
	}
	if len(windows) < 4 {
		return nil, nil, fmt.Errorf("experiments: only %d windows for subject %d", len(windows), subjectID)
	}
	// Drop the warm-up window, calibrate on the next chunk, evaluate on
	// the rest.
	usable := windows[1:]
	split := len(usable) / 2
	if split < 2 {
		split = 2
	}
	return usable[:split], usable[split:], nil
}

// drowsyAccuracy trains the per-driver model on the calibration
// halves of one awake and one drowsy recording and classifies the
// held-out windows, returning the fraction classified correctly (paper
// Section IV-F / V protocol: per-participant awake and drowsy training
// sets).
func (c *sessionCache) drowsyAccuracy(subjectID int, windowSec float64) (float64, error) {
	trainAwake, testAwake, err := c.drowsySession(subjectID, physio.Awake, windowSec)
	if err != nil {
		return 0, err
	}
	trainDrowsy, testDrowsy, err := c.drowsySession(subjectID, physio.Drowsy, windowSec)
	if err != nil {
		return 0, err
	}
	var model core.DrowsinessModel
	if err := model.Train(trainAwake, trainDrowsy); err != nil {
		return 0, err
	}
	correct, total := 0, 0
	for _, w := range testAwake {
		drowsy, _, err := model.Classify(w)
		if err != nil {
			return 0, err
		}
		if !drowsy {
			correct++
		}
		total++
	}
	for _, w := range testDrowsy {
		drowsy, _, err := model.Classify(w)
		if err != nil {
			return 0, err
		}
		if drowsy {
			correct++
		}
		total++
	}
	if total == 0 {
		return 0, fmt.Errorf("experiments: no test windows for subject %d", subjectID)
	}
	return float64(correct) / float64(total), nil
}

// fig13b is the drowsy-driving detection accuracy CDF over subjects
// with the paper's one-minute window (paper median 92.2%).
func (c *sessionCache) fig13b() (CDFResult, error) {
	accs, err := runOrdered(DefaultSubjects, func(i int) (float64, error) {
		return c.drowsyAccuracy(i+1, 60)
	})
	if err != nil {
		return CDFResult{}, err
	}
	return newCDFResult("Fig 13b: drowsy-driving detection accuracy CDF", 0.922, accs)
}

// Fig16dResult sweeps the drowsiness detection window length.
type Fig16dResult struct {
	// WindowsMin are the evaluated window lengths in minutes.
	WindowsMin []float64
	// Accuracy holds the mean subject accuracy per window length.
	Accuracy []float64
}

// fig16d evaluates window lengths of 1-4 minutes (paper: 1-2 min best;
// longer windows delay detection and shrink the sample count).
func (c *sessionCache) fig16d() (Fig16dResult, error) {
	windows := []float64{1, 1.5, 2, 3, 4}
	// A smaller panel keeps the sweep tractable; window length is a
	// per-driver-model property, so panel size only adds variance.
	const panel = 6
	accs, err := runOrdered(len(windows)*panel, func(i int) (float64, error) {
		return c.drowsyAccuracy(i%panel+1, windows[i/panel]*60)
	})
	if err != nil {
		return Fig16dResult{}, err
	}
	res := Fig16dResult{WindowsMin: windows}
	for w := range windows {
		var sum float64
		for _, a := range accs[w*panel : (w+1)*panel] {
			sum += a
		}
		res.Accuracy = append(res.Accuracy, sum/panel)
	}
	return res, nil
}

// String renders the window sweep.
func (r Fig16dResult) String() string {
	rows := make([][]string, 0, len(r.WindowsMin))
	for i := range r.WindowsMin {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f min", r.WindowsMin[i]),
			fmtPct(r.Accuracy[i]),
		})
	}
	return "Fig 16d: drowsiness detection window (paper: 1-2 min best)\n" +
		Table([]string{"window", "mean acc"}, rows)
}

// Table1DetectedResult verifies the Table I contrast end-to-end: blink
// rates measured by the radar pipeline (not ground truth) for awake and
// drowsy states.
type Table1DetectedResult struct {
	// AwakeRates and DrowsyRates are detected blinks/min per subject.
	AwakeRates, DrowsyRates []float64
}

// table1Detected measures the detected blink-rate separation that the
// drowsiness classifier relies on.
func (c *sessionCache) table1Detected() (Table1DetectedResult, error) {
	const participants, dur = 8, 120
	states := []physio.State{physio.Awake, physio.Drowsy}
	rates, err := runOrdered(participants*len(states), func(i int) (float64, error) {
		spec := SessionSpec(i/len(states)+1, 5, scenario.Driving, func(s *scenario.Spec) {
			s.State = states[i%len(states)]
			s.Duration = dur
		})
		out, err := c.session(spec, core.DefaultConfig())
		if err != nil {
			return 0, err
		}
		return float64(len(out.Events)) / dur * 60, nil
	})
	if err != nil {
		return Table1DetectedResult{}, err
	}
	var res Table1DetectedResult
	for i := 0; i < len(rates); i += len(states) {
		res.AwakeRates = append(res.AwakeRates, rates[i])
		res.DrowsyRates = append(res.DrowsyRates, rates[i+1])
	}
	return res, nil
}

// String renders both rows.
func (r Table1DetectedResult) String() string {
	header := []string{"participant"}
	rowA := []string{"awake det/min"}
	rowD := []string{"drowsy det/min"}
	for i := range r.AwakeRates {
		header = append(header, fmt.Sprintf("%d", i+1))
		rowA = append(rowA, fmt.Sprintf("%.0f", r.AwakeRates[i]))
		rowD = append(rowD, fmt.Sprintf("%.0f", r.DrowsyRates[i]))
	}
	return Table(header, [][]string{rowA, rowD})
}
