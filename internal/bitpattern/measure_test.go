package bitpattern

import (
	"testing"
	"testing/quick"
)

func TestQuartileOf(t *testing.T) {
	tests := []struct {
		num, den int
		want     Quartile
	}{
		{0, 10, Q0},
		{1, 10, Q0},   // 10%
		{2, 10, Q0},   // 20%
		{25, 100, Q1}, // exactly 25%
		{3, 10, Q1},
		{49, 100, Q1},
		{50, 100, Q2}, // exactly 50%
		{74, 100, Q2},
		{75, 100, Q3}, // exactly 75%
		{10, 10, Q3},
		{15, 10, Q3}, // >100% clamps into Q3
		{5, 0, Q0},   // zero denominator
		{-1, 10, Q0}, // negative numerator
	}
	for _, tt := range tests {
		if got := QuartileOf(tt.num, tt.den); got != tt.want {
			t.Errorf("QuartileOf(%d,%d) = %v, want %v", tt.num, tt.den, got, tt.want)
		}
	}
}

func TestQuartileMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		den := 100
		x, y := int(a)%101, int(b)%101
		if x > y {
			x, y = y, x
		}
		return QuartileOf(x, den) <= QuartileOf(y, den)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuartileString(t *testing.T) {
	wants := map[Quartile]string{Q0: "<25%", Q1: "25-50%", Q2: "50-75%", Q3: ">=75%"}
	for q, w := range wants {
		if q.String() != w {
			t.Errorf("%d.String() = %q, want %q", q, q.String(), w)
		}
	}
}

// TestComparePaperFigure8 reproduces the worked example in paper Fig. 8:
// program 1011 0100 0011 1100 (popcount 8), predicted 1010 0110 0000 0001
// (popcount 5), AND 1010 0100 0000 0000 (popcount 3) → accuracy 3/5 (50-75%),
// coverage 3/8 (25-50%).
func TestComparePaperFigure8(t *testing.T) {
	parse := func(s string) Pattern {
		p := New(16)
		i := 0
		for _, c := range s {
			switch c {
			case '1':
				p = p.Set(i)
				i++
			case '0':
				i++
			}
		}
		return p
	}
	program := parse("1011 0100 0011 1100")
	predicted := parse("1010 0110 0000 0001")
	m := Compare(predicted, program)
	if m.Pred != 5 || m.Real != 8 || m.Accurate != 3 {
		t.Fatalf("Measure = %+v, want Pred 5 Real 8 Accurate 3", m)
	}
	if m.AccuracyQ() != Q2 {
		t.Errorf("AccuracyQ = %v, want %v", m.AccuracyQ(), Q2)
	}
	if m.CoverageQ() != Q1 {
		t.Errorf("CoverageQ = %v, want %v", m.CoverageQ(), Q1)
	}
}

func TestCompareExactFractions(t *testing.T) {
	pred := New(8).Set(0).Set(1)
	act := New(8).Set(1).Set(2).Set(3).Set(4)
	// Accuracy 1/2 and coverage 1/4, as the counts the quartiles divide.
	if m := Compare(pred, act); m != (Measure{Pred: 2, Real: 4, Accurate: 1}) {
		t.Errorf("Compare = %+v, want Pred 2, Real 4, Accurate 1", m)
	}
}

func TestSatCounter(t *testing.T) {
	c := NewSatCounter(2)
	if c.Saturated() || c.v != 0 {
		t.Fatal("fresh counter should be zero")
	}
	for i := 0; i < 10; i++ {
		c.Inc()
	}
	if !c.Saturated() || c.v != 3 {
		t.Fatalf("2-bit counter should saturate at 3, got %d", c.v)
	}
	c.Dec()
	if c.Saturated() || c.v != 2 {
		t.Fatalf("after Dec: %d", c.v)
	}
	for i := 0; i < 10; i++ {
		c.Dec()
	}
	if c.v != 0 {
		t.Fatalf("should floor at 0, got %d", c.v)
	}
	c.Inc()
	c.Reset()
	if c.v != 0 {
		t.Fatal("Reset should zero the counter")
	}
}

func TestSatCounterBadBits(t *testing.T) {
	for _, b := range []uint{0, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSatCounter(%d) did not panic", b)
				}
			}()
			NewSatCounter(b)
		}()
	}
}
