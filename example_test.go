package blinkradar_test

import (
	"fmt"
	"log"

	"blinkradar"
)

// Example demonstrates the minimal simulate-detect-score loop. The
// output is deterministic because the scenario seed fixes every random
// draw in the capture.
func Example() {
	spec := blinkradar.DefaultSpec()
	spec.Subject = blinkradar.NewSubject(2)
	spec.Duration = 60
	spec.Seed = 7

	capture, err := blinkradar.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	events, _, err := blinkradar.Detect(blinkradar.DefaultConfig(), capture.Frames)
	if err != nil {
		log.Fatal(err)
	}
	truth := blinkradar.TrimWarmup(capture.Truth, blinkradar.DefaultWarmup)
	m := blinkradar.Match(truth, events, 0)
	fmt.Printf("accuracy %.0f%% over %d blinks\n", m.Accuracy()*100, len(truth))
	// Output: accuracy 100% over 14 blinks
}

// ExampleDrowsinessModel shows per-driver calibration from labelled
// windows and classification of a fresh window.
func ExampleDrowsinessModel() {
	awake := []blinkradar.WindowFeatures{
		{BlinkRate: 18, MeanBlinkDuration: 0.25},
		{BlinkRate: 20, MeanBlinkDuration: 0.28},
		{BlinkRate: 19, MeanBlinkDuration: 0.22},
	}
	drowsy := []blinkradar.WindowFeatures{
		{BlinkRate: 27, MeanBlinkDuration: 0.55},
		{BlinkRate: 25, MeanBlinkDuration: 0.60},
		{BlinkRate: 29, MeanBlinkDuration: 0.52},
	}
	var model blinkradar.DrowsinessModel
	if err := model.Train(awake, drowsy); err != nil {
		log.Fatal(err)
	}
	isDrowsy, _, err := model.Classify(blinkradar.WindowFeatures{BlinkRate: 28, MeanBlinkDuration: 0.57})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("drowsy:", isDrowsy)
	// Output: drowsy: true
}

// ExampleNewPulse inspects the paper's transmit pulse parameters. The
// range resolution is c/(2B).
func ExampleNewPulse() {
	p := blinkradar.NewPulse()
	const c = 299792458.0 // speed of light, m/s
	fmt.Printf("carrier %.1f GHz, bandwidth %.1f GHz, resolution %.3f m\n",
		p.CarrierHz/1e9, p.BandwidthHz/1e9, c/(2*p.BandwidthHz))
	// Output: carrier 7.3 GHz, bandwidth 1.4 GHz, resolution 0.107 m
}
