package sim_test

import (
	"testing"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// TestSimRunSteadyStateZeroAllocs enforces the allocation discipline at the
// whole-simulation level for one workload of every category — not just the
// Port.Access micro-path. A run's heap allocations must be entirely
// per-run setup (caches, cores, prefetcher tables): growing the simulated
// reference count must not grow the allocation count, i.e. the steady-state
// loop — trace replay included — allocates nothing per reference.
//
// The tpcc family used to fail this at ~0.41 allocs/ref: the spatial
// generator allocated two slices per footprint pattern on every run. The
// shared-slab construction plus the materialize-once replay store hold the
// marginal cost at zero.
//
// The check runs with CollectStats both off and on. The telemetry layer's
// contract is that models count into plain fields on the hot path and the
// flag only triggers a finish-time snapshot, so the snapshot cost is per-run
// setup that cancels between the short and long runs — the steady-state
// slope must stay at zero in both modes.
func TestSimRunSteadyStateZeroAllocs(t *testing.T) {
	const (
		shortRefs = 2_000
		longRefs  = 12_000
		// maxPerRef bounds (allocs(long) - allocs(short)) / (long - short).
		// Zero in practice; the epsilon absorbs one-off amortized growth of
		// append-managed scratch (prefetch queues) crossing a size class.
		maxPerRef = 0.005
	)
	for _, collectStats := range []bool{false, true} {
		for _, cat := range trace.Categories {
			ws := trace.ByCategory(cat)
			if len(ws) == 0 {
				t.Fatalf("category %s has no workloads", cat)
			}
			w := ws[0]
			short := sim.DefaultST()
			short.Refs = shortRefs
			short.L2 = sim.PFDSPatchSPP
			short.CollectStats = collectStats
			long := short
			long.Refs = longRefs

			// Materialize the shared trace out of the measured region.
			sim.RunSingle(w, long)

			sAllocs := testing.AllocsPerRun(3, func() { sim.RunSingle(w, short) })
			lAllocs := testing.AllocsPerRun(3, func() { sim.RunSingle(w, long) })
			perRef := (lAllocs - sAllocs) / float64(longRefs-shortRefs)
			if perRef > maxPerRef {
				t.Errorf("%s/%s (stats=%t): %.4f allocs per steady-state reference (short run %.0f, long run %.0f), want ~0",
					cat, w.Name, collectStats, perRef, sAllocs, lAllocs)
			}
		}
	}
}
