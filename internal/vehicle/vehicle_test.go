package vehicle

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoadTypeProfilesOrdering(t *testing.T) {
	smooth := SmoothHighway.Profile()
	urban := UrbanRoad.Profile()
	manoeuvre := ManoeuvreHeavy.Profile()
	bumpy := BumpyRoad.Profile()
	if !(smooth.VibrationRMS < urban.VibrationRMS && urban.VibrationRMS < bumpy.VibrationRMS) {
		t.Fatal("vibration RMS must grow with road roughness")
	}
	if !(manoeuvre.ManoeuvreRate > smooth.ManoeuvreRate) {
		t.Fatal("manoeuvre-heavy roads must manoeuvre more often")
	}
	if manoeuvre.ManoeuvreSwayM <= urban.ManoeuvreSwayM {
		t.Fatal("manoeuvre-heavy sway must exceed urban")
	}
}

func TestRoadTypeStrings(t *testing.T) {
	want := map[RoadType]string{
		SmoothHighway:  "smooth-highway",
		UrbanRoad:      "urban",
		ManoeuvreHeavy: "manoeuvre-heavy",
		BumpyRoad:      "bumpy",
	}
	for rt, s := range want {
		if rt.String() != s {
			t.Errorf("%d.String() = %q, want %q", rt, rt.String(), s)
		}
	}
	if RoadType(42).String() == "" {
		t.Error("unknown road type must still render")
	}
	if len(AllRoadTypes()) != 4 {
		t.Error("AllRoadTypes must list the four paper classes")
	}
	// Unknown values degrade to the smooth profile rather than panic.
	if RoadType(42).Profile().VibrationRMS != SmoothHighway.Profile().VibrationRMS {
		t.Error("unknown road type should fall back to the smooth profile")
	}
}

func TestGenerateVibrationRMS(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := BumpyRoad.Profile()
	cfg.ManoeuvreRate = 0 // isolate the texture component
	v, err := GenerateVibration(cfg, 120, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	var acc float64
	for _, s := range v.samples {
		acc += s * s
	}
	got := math.Sqrt(acc / float64(len(v.samples)))
	if got < cfg.VibrationRMS*0.5 || got > cfg.VibrationRMS*2 {
		t.Fatalf("vibration RMS %g, want ~%g", got, cfg.VibrationRMS)
	}
}

func TestGenerateVibrationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateVibration(SmoothHighway.Profile(), 0, 25, rng); err == nil {
		t.Fatal("zero duration must be rejected")
	}
	if _, err := GenerateVibration(SmoothHighway.Profile(), 10, 0, rng); err == nil {
		t.Fatal("zero sample rate must be rejected")
	}
}

func TestVibrationAtInterpolatesAndClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	v, err := GenerateVibration(UrbanRoad.Profile(), 10, 25, rng)
	if err != nil {
		t.Fatal(err)
	}
	if v.At(-5) != v.At(0) {
		t.Fatal("negative time must clamp to the first sample")
	}
	if v.At(100) != v.At(10) {
		t.Fatal("beyond-capture time must clamp to the last sample")
	}
	// Interpolation lies between neighbouring samples.
	a, b := v.At(1.0), v.At(1.04)
	mid := v.At(1.02)
	lo, hi := math.Min(a, b), math.Max(a, b)
	if mid < lo-1e-12 || mid > hi+1e-12 {
		t.Fatalf("interpolated %g outside [%g, %g]", mid, lo, hi)
	}
}

func TestVibrationDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		a, err := GenerateVibration(BumpyRoad.Profile(), 20, 25, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		b, err := GenerateVibration(BumpyRoad.Profile(), 20, 25, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for i := 0; i < 500; i++ {
			tt := float64(i) * 0.04
			if a.At(tt) != b.At(tt) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultCabin(t *testing.T) {
	cabin := DefaultCabin()
	if len(cabin) < 4 {
		t.Fatalf("cabin has %d reflectors, want a realistic set", len(cabin))
	}
	for _, c := range cabin {
		if c.Range <= 0 || c.Reflectivity <= 0 {
			t.Fatalf("invalid clutter %+v", c)
		}
	}
}

func TestPassengerFidgets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPassenger(0.9, 300, rng)
	if p.Label() != "passenger" {
		t.Fatal("label mismatch")
	}
	var moved bool
	base, rho := p.State(0)
	if rho <= 0 {
		t.Fatal("passenger must reflect")
	}
	for i := 0; i < 3000; i++ {
		r, _ := p.State(float64(i) * 0.1)
		if math.Abs(r-base) > 1e-6 {
			moved = true
		}
		if math.Abs(r-base) > 0.06 {
			t.Fatalf("fidget displacement %g too large", r-base)
		}
	}
	if !moved {
		t.Fatal("passenger never fidgeted in 5 minutes")
	}
}
