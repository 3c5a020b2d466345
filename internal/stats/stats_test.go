package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	tests := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{1, 4}, 2},
		{[]float64{2, 2, 2}, 2},
		{[]float64{1, 100}, 10},
	}
	for _, tt := range tests {
		if got := Geomean(tt.in); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestGeomeanBetweenMinMax(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, r := range raw {
			x := math.Abs(r)
			if x > 1e-6 && x < 1e6 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeomeanClampNonPositive(t *testing.T) {
	if g := Geomean([]float64{0, 4}); g <= 0 {
		t.Errorf("Geomean with zero entry = %v, want positive", g)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSpeedupPct(t *testing.T) {
	if got := SpeedupPct(1.06); math.Abs(got-6) > 1e-9 {
		t.Errorf("SpeedupPct(1.06) = %v", got)
	}
	if got := GeomeanSpeedupPct([]float64{1.1, 1.1}); math.Abs(got-10) > 1e-6 {
		t.Errorf("GeomeanSpeedupPct = %v", got)
	}
}

func TestFiniteRatios(t *testing.T) {
	kept, dropped := FiniteRatios([]float64{1.1, 0, math.NaN(), math.Inf(1), -2, 0.9})
	if dropped != 4 {
		t.Errorf("dropped = %d, want 4", dropped)
	}
	if len(kept) != 2 || kept[0] != 1.1 || kept[1] != 0.9 {
		t.Errorf("kept = %v, want [1.1 0.9]", kept)
	}
	if kept, dropped := FiniteRatios(nil); len(kept) != 0 || dropped != 0 {
		t.Errorf("FiniteRatios(nil) = %v, %d", kept, dropped)
	}
}

func TestGeomeanSpeedupPctSkipsDegenerate(t *testing.T) {
	// A single zero ratio (baseline IPC 0) used to be clamped to 1e-9 and
	// drag the aggregate toward -100%; it must now be skipped.
	got := GeomeanSpeedupPct([]float64{1.1, 1.1, 0})
	if math.Abs(got-10) > 1e-6 {
		t.Errorf("GeomeanSpeedupPct with degenerate entry = %v, want 10", got)
	}
	if !math.IsNaN(GeomeanSpeedupPct([]float64{0, math.NaN()})) {
		t.Error("all-degenerate input should aggregate to NaN")
	}
	if !math.IsNaN(GeomeanSpeedupPct(nil)) {
		t.Error("empty input should aggregate to NaN")
	}
}
