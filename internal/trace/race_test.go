//go:build race

package trace

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates: allocation-budget tests skip under it.
const raceEnabled = true
