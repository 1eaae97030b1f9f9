package experiments

import (
	"fmt"
	"math"

	"blinkradar/internal/core"
	"blinkradar/internal/scenario"
	"blinkradar/internal/vitals"
)

// ExtVitalsResult validates the "embedded interference" quantitatively:
// the respiration and heartbeat that the paper only exploits for bin
// selection must be recoverable from the very same stream (as the
// in-vehicle vital-sign systems the paper cites do). This is an
// extension experiment beyond the paper's tables.
type ExtVitalsResult struct {
	// Rows hold one entry per subject.
	Rows []ExtVitalsRow
	// RespWithinBPM and HeartWithinBPM count subjects whose estimate
	// landed within 2 breaths/min and 6 beats/min of ground truth.
	RespWithinBPM, HeartWithinBPM int
}

// ExtVitalsRow is one subject's estimate versus ground truth.
type ExtVitalsRow struct {
	// Subject is the participant id.
	Subject int
	// TrueRespBPM and EstRespBPM compare breathing rates.
	TrueRespBPM, EstRespBPM float64
	// TrueHeartBPM and EstHeartBPM compare heart rates (0 estimate
	// when no confident line was found).
	TrueHeartBPM, EstHeartBPM float64
}

// extVitals runs the blink pipeline's own preprocessing and bin
// selection, then estimates vital signs from the selected bin for every
// subject.
func extVitals() (ExtVitalsResult, error) {
	rows, err := runOrdered(DefaultSubjects, func(i int) (ExtVitalsRow, error) {
		id := i + 1
		spec := SessionSpec(id, 9, scenario.Lab, func(s *scenario.Spec) {
			s.Duration = 90
		})
		cap, err := scenario.Generate(spec)
		if err != nil {
			return ExtVitalsRow{}, err
		}
		pre, err := core.PreprocessMatrix(cap.Frames)
		if err != nil {
			return ExtVitalsRow{}, err
		}
		best, err := core.SelectBinMatrix(pre)
		if err != nil {
			return ExtVitalsRow{}, err
		}
		skip := int(core.BackgroundTauSec*cap.Frames.FrameRate) + 1
		est, err := vitals.EstimateFromSeries(pre.SlowTime(best.Bin)[skip:], cap.Frames.FrameRate)
		if err != nil {
			return ExtVitalsRow{}, fmt.Errorf("subject %d: %w", id, err)
		}
		return ExtVitalsRow{
			Subject:      id,
			TrueRespBPM:  spec.Subject.Respiration.RateHz * 60,
			EstRespBPM:   est.RespirationBPM(),
			TrueHeartBPM: spec.Subject.Heartbeat.RateHz * 60,
			EstHeartBPM:  est.HeartBPM(),
		}, nil
	})
	if err != nil {
		return ExtVitalsResult{}, err
	}
	res := ExtVitalsResult{Rows: rows}
	for _, row := range rows {
		if math.Abs(row.EstRespBPM-row.TrueRespBPM) <= 2 {
			res.RespWithinBPM++
		}
		if row.EstHeartBPM > 0 && math.Abs(row.EstHeartBPM-row.TrueHeartBPM) <= 6 {
			res.HeartWithinBPM++
		}
	}
	return res, nil
}

// String renders the per-subject table.
func (r ExtVitalsResult) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		heart := "-"
		if row.EstHeartBPM > 0 {
			heart = fmt.Sprintf("%.0f", row.EstHeartBPM)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Subject),
			fmt.Sprintf("%.1f", row.TrueRespBPM),
			fmt.Sprintf("%.1f", row.EstRespBPM),
			fmt.Sprintf("%.0f", row.TrueHeartBPM),
			heart,
		})
	}
	return fmt.Sprintf("Extension: vital signs from the blink stream (%d/%d respiration within 2 bpm, %d/%d heart within 6 bpm)\n",
		r.RespWithinBPM, len(r.Rows), r.HeartWithinBPM, len(r.Rows)) +
		Table([]string{"subject", "true resp", "est resp", "true heart", "est heart"}, rows)
}

// extDeviceVibration sweeps vibration of the radar unit itself — the
// open challenge of the paper's Discussion ("the detected motion
// information comes from both the target and the device"). Device
// shake defeats the static-clutter assumption behind background
// subtraction, so accuracy should degrade faster than with the same
// RMS of body-only vibration.
func (c *sessionCache) extDeviceVibration() (SweepResult, error) {
	return sweep(c, "Extension: device vibration",
		"sub-millimetre device shake already breaks the static-clutter assumption", scenario.Driving,
		[]float64{0, 0.00005, 0.0002, 0.001},
		func(l float64) string { return fmt.Sprintf("%.2f mm", l*1000) },
		func(s *scenario.Spec, l float64) { s.DeviceVibrationRMS = l })
}
