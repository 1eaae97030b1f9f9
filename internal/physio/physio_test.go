package physio

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// ratePerMinute is the mean blink rate over a capture of duration
// seconds.
func ratePerMinute(blinks []Blink, duration float64) float64 {
	return float64(len(blinks)) / duration * 60
}

// meanDuration is the mean blink duration, or 0 when empty.
func meanDuration(blinks []Blink) float64 {
	if len(blinks) == 0 {
		return 0
	}
	var sum float64
	for _, b := range blinks {
		sum += b.Duration
	}
	return sum / float64(len(blinks))
}

func TestGenerateBlinksStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, state := range []State{Awake, Drowsy} {
		stats := DefaultStats(state)
		blinks, err := GenerateBlinks(stats, 600, rng)
		if err != nil {
			t.Fatal(err)
		}
		rate := ratePerMinute(blinks, 600)
		if math.Abs(rate-stats.RatePerMin) > stats.RatePerMin*0.3 {
			t.Errorf("%v rate %g/min, want ~%g", state, rate, stats.RatePerMin)
		}
		dur := meanDuration(blinks)
		if math.Abs(dur-stats.MeanDuration) > stats.MeanDuration*0.4 {
			t.Errorf("%v mean duration %g, want ~%g", state, dur, stats.MeanDuration)
		}
	}
}

func TestDrowsyBlinksLongerAndMoreFrequent(t *testing.T) {
	// The core physiological contrast behind the whole system.
	rng := rand.New(rand.NewSource(2))
	awake, err := GenerateBlinks(DefaultStats(Awake), 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	drowsy, err := GenerateBlinks(DefaultStats(Drowsy), 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(drowsy) <= len(awake) {
		t.Errorf("drowsy blinks %d not above awake %d", len(drowsy), len(awake))
	}
	if meanDuration(drowsy) <= meanDuration(awake) {
		t.Errorf("drowsy duration %g not above awake %g", meanDuration(drowsy), meanDuration(awake))
	}
	if meanDuration(drowsy) < 0.4 {
		t.Errorf("drowsy mean duration %g below the 400 ms threshold the paper cites", meanDuration(drowsy))
	}
}

func TestGenerateBlinksInvariantsProperty(t *testing.T) {
	// Sorted, non-overlapping, refractory-separated, inside [0, dur].
	f := func(seed int64, drowsy bool) bool {
		rng := rand.New(rand.NewSource(seed))
		state := Awake
		if drowsy {
			state = Drowsy
		}
		const duration = 120.0
		blinks, err := GenerateBlinks(DefaultStats(state), duration, rng)
		if err != nil {
			return false
		}
		for i, b := range blinks {
			if b.Start < 0 || b.End() > duration {
				return false
			}
			if b.Duration < DefaultStats(state).MinDuration {
				return false
			}
			if i > 0 {
				gap := b.Start - blinks[i-1].End()
				if gap < 0.8-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateBlinksErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateBlinks(BlinkStats{}, 60, rng); err == nil {
		t.Fatal("zero stats must be rejected")
	}
	if _, err := GenerateBlinks(DefaultStats(Awake), 0, rng); err == nil {
		t.Fatal("zero duration must be rejected")
	}
}

func TestEyelidClosure(t *testing.T) {
	lid := NewEyelid([]Blink{{Start: 1, Duration: 0.4}})
	cases := []struct {
		t    float64
		want float64
	}{
		{0.5, 0},   // before
		{1.0, 0},   // onset
		{1.18, 1},  // plateau (30-60% of duration)
		{1.4, 0},   // fully reopened
		{2.0, 0},   // after
		{1.06, .5}, // mid-closing (raised cosine hits 0.5 at half stage)
	}
	for _, tc := range cases {
		if got := lid.Closure(tc.t); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("closure(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestEyelidClosureBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blinks, err := GenerateBlinks(DefaultStats(Awake), 60, rng)
		if err != nil {
			return false
		}
		lid := NewEyelid(blinks)
		for i := 0; i < 500; i++ {
			c := lid.Closure(rng.Float64() * 60)
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRespirationAndHeartbeatBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := NewRespiration(rng)
	h := NewHeartbeat(rng)
	maxChest := r.ChestAmplitude * (1 + r.Harmonic2)
	maxHead := h.Amplitude * (1 + h.Harmonic2 + h.Harmonic3)
	for i := 0; i < 1000; i++ {
		tt := float64(i) * 0.04
		if math.Abs(r.Chest(tt)) > maxChest+1e-9 {
			t.Fatalf("chest displacement %g beyond bound %g", r.Chest(tt), maxChest)
		}
		if math.Abs(r.Head(tt)) > r.HeadCoupling*maxChest+1e-9 {
			t.Fatal("head coupling bound violated")
		}
		if math.Abs(h.Head(tt)) > maxHead+1e-9 {
			t.Fatalf("BCG displacement %g beyond bound %g", h.Head(tt), maxHead)
		}
	}
	// Physiological ranges.
	if r.RateHz < 0.2 || r.RateHz > 0.3 {
		t.Errorf("respiration rate %g outside 0.2-0.3 Hz", r.RateHz)
	}
	if h.RateHz < 1.0 || h.RateHz > 1.5 {
		t.Errorf("heart rate %g outside 1.0-1.5 Hz", h.RateHz)
	}
	if h.Amplitude < 0.0005 || h.Amplitude > 0.002 {
		t.Errorf("BCG amplitude %g outside ~1 mm", h.Amplitude)
	}
}

func TestRespirationPeriodicity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	r := NewRespiration(rng)
	period := 1 / r.RateHz
	for i := 0; i < 50; i++ {
		tt := float64(i) * 0.13
		if math.Abs(r.Chest(tt)-r.Chest(tt+period)) > 1e-9 {
			t.Fatalf("chest not periodic at t=%g", tt)
		}
	}
}

func TestBodyMotion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := DefaultBodyMotionConfig()
	bm, err := GenerateBodyMotion(cfg, 600, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(bm.shifts) == 0 {
		t.Fatal("no posture shifts over 10 minutes")
	}
	if got := bm.Displacement(0); got != 0 {
		t.Fatalf("initial displacement %g, want 0", got)
	}
	// Mean reversion keeps the cumulative displacement bounded.
	for i := 0; i <= 600; i++ {
		if d := bm.Displacement(float64(i)); math.Abs(d) > 4*cfg.MaxDelta {
			t.Fatalf("displacement %g at t=%d escapes the mean-reverting bound", d, i)
		}
	}
}

func TestBodyMotionErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateBodyMotion(BodyMotionConfig{}, 60, rng); err == nil {
		t.Fatal("zero interval must be rejected")
	}
	if _, err := GenerateBodyMotion(DefaultBodyMotionConfig(), 0, rng); err == nil {
		t.Fatal("zero duration must be rejected")
	}
}

func TestSubjectDeterminism(t *testing.T) {
	a := NewSubject(5)
	b := NewSubject(5)
	if a.EyeWidthM != b.EyeWidthM || a.Respiration.RateHz != b.Respiration.RateHz {
		t.Fatal("same id produced different subjects")
	}
	c := NewSubject(6)
	if a.EyeWidthM == c.EyeWidthM && a.BlinkPathDelta == c.BlinkPathDelta {
		t.Fatal("different ids produced identical subjects")
	}
}

func TestSubjectValidate(t *testing.T) {
	s := NewSubject(1)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.EyeWidthM = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero eye width must be rejected")
	}
}

func TestRoster(t *testing.T) {
	r := Roster(12)
	if len(r) != 12 {
		t.Fatalf("roster size %d", len(r))
	}
	for i, s := range r {
		if s.ID != i+1 {
			t.Fatalf("roster[%d].ID = %d", i, s.ID)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("subject %d invalid: %v", s.ID, err)
		}
	}
}

func TestEyeSizeScaleMonotone(t *testing.T) {
	small := Subject{EyeWidthM: 0.035, EyeHeightM: 0.008}
	big := Subject{EyeWidthM: 0.05, EyeHeightM: 0.014}
	if small.EyeSizeScale() >= big.EyeSizeScale() {
		t.Fatal("eye size scale must grow with area")
	}
	ref := Subject{EyeWidthM: 0.045, EyeHeightM: 0.012}
	if math.Abs(ref.EyeSizeScale()-1) > 1e-9 {
		t.Fatalf("reference scale %g, want 1", ref.EyeSizeScale())
	}
}

func TestGlassesAttenuation(t *testing.T) {
	if NoGlasses.Attenuation() != 1 {
		t.Fatal("bare eye must not attenuate")
	}
	if !(Sunglasses.Attenuation() < MyopiaGlasses.Attenuation()) {
		t.Fatal("sunglasses must attenuate more than clear lenses")
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		Awake.String():         "awake",
		Drowsy.String():        "drowsy",
		NoGlasses.String():     "none",
		MyopiaGlasses.String(): "myopia",
		Sunglasses.String():    "sunglasses",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("stringer %q, want %q", got, want)
		}
	}
	if State(99).String() == "" || Glasses(99).String() == "" {
		t.Error("unknown values must still render")
	}
}
