// Package stats provides the small statistical helpers the experiment
// harness needs: geometric means (the paper's summary metric), arithmetic
// means and histogram formatting.
package stats

import "math"

// Geomean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny epsilon so a single degenerate run cannot zero the
// aggregate. An empty slice returns 0.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-9
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// SpeedupPct converts a speedup ratio into the paper's "performance delta
// over baseline" percentage: 1.06 → 6.0.
func SpeedupPct(ratio float64) float64 { return (ratio - 1) * 100 }

// FiniteRatios returns the finite, positive entries of xs plus a count of
// the dropped ones. A degenerate run — a baseline with zero IPC yields a
// speedup ratio of 0, and a zero prefetched IPC over zero baseline yields
// NaN — would otherwise be clamped by Geomean to 1e-9 and drag an entire
// aggregate toward −100%.
func FiniteRatios(xs []float64) (kept []float64, dropped int) {
	kept = make([]float64, 0, len(xs))
	for _, x := range xs {
		if x > 0 && !math.IsInf(x, 1) { // NaN fails x > 0
			kept = append(kept, x)
		}
	}
	return kept, len(xs) - len(kept)
}

// GeomeanSpeedupPct aggregates per-workload speedup ratios into a
// performance-delta percentage, the way the paper's GEOMEAN bars do.
// Degenerate ratios (zero, negative, NaN, +Inf) are skipped rather than
// clamped; NaN is returned when nothing valid remains. Callers that need the
// number of skipped runs use FiniteRatios directly.
func GeomeanSpeedupPct(ratios []float64) float64 {
	kept, _ := FiniteRatios(ratios)
	if len(kept) == 0 {
		return math.NaN()
	}
	return SpeedupPct(Geomean(kept))
}
