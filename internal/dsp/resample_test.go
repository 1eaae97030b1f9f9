package dsp

import "testing"

func TestResample(t *testing.T) {
	// Upsampling a line reproduces the line exactly under linear
	// interpolation.
	x := []float64{0, 1, 2, 3}
	out, err := Resample(x, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("resampled length %d, want 7", len(out))
	}
	for i, v := range out {
		if !approxEqual(v, float64(i)/2, 1e-12) {
			t.Fatalf("sample %d = %g, want %g", i, v, float64(i)/2)
		}
	}
	if _, err := Resample(x, 0, 2); err == nil {
		t.Fatal("zero source rate must be rejected")
	}
	if out, err := Resample(nil, 1, 2); err != nil || out != nil {
		t.Fatal("empty input should resample to nil without error")
	}
}

func TestDecimate(t *testing.T) {
	x := []float64{1, 1, 1, 1, 1, 1}
	out, err := Decimate(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("decimated length %d, want 3", len(out))
	}
	for _, v := range out {
		if !approxEqual(v, 1, floatTol) {
			t.Fatalf("decimated constant %g, want 1", v)
		}
	}
	// Factor 1 copies.
	same, err := Decimate(x, 1)
	if err != nil || len(same) != len(x) {
		t.Fatal("factor-1 decimation should copy")
	}
	if _, err := Decimate(x, 0); err == nil {
		t.Fatal("zero factor must be rejected")
	}
}
