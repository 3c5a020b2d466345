// Package perfbench holds the simulator's micro-benchmarks: per-layer
// numbers (Port.Access, DRAM.Access, DSPatch.Train) and an end-to-end run,
// for profiling one layer in isolation. The repository benchmark under
// bench/ is the measurement that gates performance; these complement it.
//
// Run them with:
//
//	go test -bench=. -benchmem ./internal/perfbench
//
// and compare two commits with benchstat (see the README's Performance
// section). TestPortAccessSteadyStateZeroAllocs and
// TestSimRunSteadyStateZeroAllocs turn the hot path's zero-allocation
// property into regression tests, so CI fails if an allocation sneaks back
// into the per-reference path.
package perfbench
