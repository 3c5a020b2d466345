//go:build race

package sweep

// raceEnabled reports a -race build, whose instrumentation changes what
// allocates: allocation-budget tests skip under it.
const raceEnabled = true
