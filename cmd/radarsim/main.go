// Command radarsim generates a synthetic radar capture and writes it to
// disk in the .brc v2 capture format (versioned header, per-frame CRC,
// end marker, torn-write recovery; see
// internal/transport/capture.go) together with a JSON ground-truth
// sidecar. The output can be replayed by cmd/radard or cmd/radarfleet,
// or analysed offline.
//
// Usage:
//
//	radarsim -out capture.brc [-truth capture.json] [flags]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"blinkradar"
	"blinkradar/internal/chaos"
	"blinkradar/internal/transport"
)

// truthFile is the JSON sidecar layout.
type truthFile struct {
	// Spec echo for reproducibility.
	SubjectID int     `json:"subject_id"`
	State     string  `json:"state"`
	Seed      int64   `json:"seed"`
	Duration  float64 `json:"duration_sec"`
	// EyeBin is the true eye range bin.
	EyeBin int `json:"eye_bin"`
	// Blinks are the ground-truth events.
	Blinks []blinkJSON `json:"blinks"`
}

type blinkJSON struct {
	Start    float64 `json:"start_sec"`
	Duration float64 `json:"duration_sec"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("radarsim: ")
	var (
		out       = flag.String("out", "capture.brc", "output capture file")
		truthOut  = flag.String("truth", "", "ground-truth JSON sidecar (default <out>.json)")
		subjectID = flag.Int("subject", 1, "participant profile id")
		duration  = flag.Float64("duration", 60, "capture length in seconds")
		drowsy    = flag.Bool("drowsy-state", false, "simulate a drowsy driver")
		driving   = flag.Bool("driving", false, "on-road capture instead of lab")
		seed      = flag.Int64("seed", 1, "scenario seed")
		chaosSpec = flag.String("chaos", "", "fault spec applied to the written frames, e.g. seed=7,drop=0.05,nan=0.01 (see internal/chaos.ParseSpec)")
	)
	flag.Parse()
	if *truthOut == "" {
		*truthOut = *out + ".json"
	}

	spec := blinkradar.DefaultSpec()
	spec.Subject = blinkradar.NewSubject(*subjectID)
	spec.Duration = *duration
	spec.Seed = *seed
	if *drowsy {
		spec.State = blinkradar.Drowsy
	}
	if *driving {
		spec.Environment = blinkradar.Driving
	}

	capture, err := blinkradar.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	inj, err := buildInjector(*chaosSpec)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeCapture(*out, capture, inj); err != nil {
		log.Fatal(err)
	}
	if inj != nil {
		st := inj.Stats()
		fmt.Printf("chaos: %d frames dropped, %d duplicated, %d reordered, %d poisoned, %d saturated\n",
			st.Dropped, st.Duplicated, st.Reordered, st.Poisoned, st.Saturated)
	}
	if err := writeTruth(*truthOut, spec, capture); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d frames (%.0f s, %d bins) to %s, ground truth (%d blinks) to %s\n",
		capture.Frames.NumFrames(), capture.Frames.Duration(), capture.Frames.NumBins(),
		*out, len(capture.Truth), *truthOut)
}

// buildInjector parses the -chaos spec into a frame injector, or nil
// when no faults are requested.
func buildInjector(spec string) (*chaos.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	cfg, err := chaos.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return chaos.New(cfg)
}

func writeCapture(path string, capture *blinkradar.Capture, inj *chaos.Injector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create capture: %w", err)
	}
	defer f.Close()
	m := capture.Frames
	hello := transport.StreamHello{
		FrameRate:  m.FrameRate,
		BinSpacing: m.BinSpacing,
		NumBins:    uint32(m.NumBins()),
	}
	// Start time 0: synthetic captures carry no wall-clock epoch, and a
	// byte-identical file for identical flags lets CI cache the
	// generated corpus by content.
	cw, err := transport.NewCaptureWriter(f, hello, 0)
	if err != nil {
		return err
	}

	for k, frame := range m.Data {
		in := transport.Frame{
			Seq:             uint64(k),
			TimestampMicros: transport.TimestampMicros(m.FrameTime(k)),
			Bins:            frame,
		}
		if inj == nil {
			if err := cw.WriteFrame(in); err != nil {
				return err
			}
			continue
		}
		// Dropped frames keep their sequence number out of the file, so
		// replaying it downstream shows the same gaps a lossy link would.
		for _, out := range inj.Apply(in) {
			if err := cw.WriteFrame(out); err != nil {
				return err
			}
		}
	}
	if inj != nil {
		for _, out := range inj.Flush() {
			if err := cw.WriteFrame(out); err != nil {
				return err
			}
		}
	}
	if err := cw.Close(); err != nil {
		return err
	}
	return f.Close()
}

func writeTruth(path string, spec blinkradar.Spec, capture *blinkradar.Capture) error {
	t := truthFile{
		SubjectID: spec.Subject.ID,
		State:     spec.State.String(),
		Seed:      spec.Seed,
		Duration:  spec.Duration,
		EyeBin:    capture.EyeBin,
	}
	for _, b := range capture.Truth {
		t.Blinks = append(t.Blinks, blinkJSON{Start: b.Start, Duration: b.Duration})
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal truth: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write truth: %w", err)
	}
	return nil
}
