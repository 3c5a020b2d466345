package bitpattern

// Quartile is a 2-bit quantized fraction, the representation DSPatch uses for
// both the DRAM bandwidth-utilization signal (§3.2) and the goodness measures
// of its stored bit-patterns (§3.5, Fig. 8).
type Quartile uint8

// Quartile values. QuartileOf maps a fraction n/d into these four buckets.
const (
	Q0 Quartile = iota // < 25%
	Q1                 // 25% – 50%
	Q2                 // 50% – 75%
	Q3                 // >= 75%
)

// QuartileOf quantizes the fraction num/den into a Quartile using only the
// shift-and-compare arithmetic the hardware would use. A zero denominator
// maps to Q0.
func QuartileOf(num, den int) Quartile {
	if den <= 0 || num <= 0 {
		return Q0
	}
	n4 := num << 2
	switch {
	case n4 >= 3*den: // num/den >= 3/4
		return Q3
	case num<<1 >= den: // >= 1/2
		return Q2
	case n4 >= den: // >= 1/4
		return Q1
	default:
		return Q0
	}
}

// String implements fmt.Stringer.
func (q Quartile) String() string {
	switch q {
	case Q0:
		return "<25%"
	case Q1:
		return "25-50%"
	case Q2:
		return "50-75%"
	default:
		return ">=75%"
	}
}

// Measure holds the outcome of comparing a predicted bit-pattern against the
// program's actual access bit-pattern for one region generation (Fig. 8).
type Measure struct {
	Pred     int // PopCount(predicted)           — prefetches that would issue
	Real     int // PopCount(program)             — actual accesses
	Accurate int // PopCount(predicted & program) — useful prefetches
}

// Compare computes the accuracy/coverage measure of predicted against actual.
func Compare(predicted, actual Pattern) Measure {
	return Measure{
		Pred:     predicted.PopCount(),
		Real:     actual.PopCount(),
		Accurate: predicted.And(actual).PopCount(),
	}
}

// AccuracyQ returns the quantized prediction accuracy Cacc/Cpred.
func (m Measure) AccuracyQ() Quartile { return QuartileOf(m.Accurate, m.Pred) }

// CoverageQ returns the quantized prediction coverage Cacc/Creal.
func (m Measure) CoverageQ() Quartile { return QuartileOf(m.Accurate, m.Real) }

// SatCounter is an n-bit saturating counter. DSPatch uses 2-bit instances for
// OrCount, MeasureCovP and MeasureAccP.
type SatCounter struct {
	v   uint8
	max uint8
}

// NewSatCounter returns a saturating counter over [0, 2^bits-1].
func NewSatCounter(bits uint) SatCounter {
	if bits == 0 || bits > 7 {
		panic("bitpattern: counter bits out of range [1,7]")
	}
	return SatCounter{max: uint8(1)<<bits - 1}
}

// Inc increments the counter, saturating at its maximum.
func (c *SatCounter) Inc() {
	if c.v < c.max {
		c.v++
	}
}

// Dec decrements the counter, saturating at zero.
func (c *SatCounter) Dec() {
	if c.v > 0 {
		c.v--
	}
}

// Reset sets the counter to zero.
func (c *SatCounter) Reset() { c.v = 0 }

// Saturated reports whether the counter is at its maximum.
func (c *SatCounter) Saturated() bool { return c.v == c.max }
