package perfbench

import (
	"testing"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// campaignRoster is a heterogeneous campaign: four prefetchers crossed with
// two LLC sizes, all sharing one (workload, seed, refs) trace
// identity so the whole roster qualifies for lockstep batching.
func campaignRoster(refs int) []sim.Options {
	pfs := []sim.PF{sim.PFNone, sim.PFSPP, sim.PFDSPatch, sim.PFDSPatchSPP}
	llcs := []int{1 << 20, 2 << 20}
	var opts []sim.Options
	for _, llc := range llcs {
		for _, pf := range pfs {
			o := sim.DefaultST()
			o.Refs = refs
			o.L2 = pf
			o.LLCBytes = llc
			opts = append(opts, o)
		}
	}
	return opts
}

func campaignWorkload(b *testing.B) []trace.Workload {
	w, ok := trace.ByName("tpcc")
	if !ok {
		b.Fatal("workload roster is missing tpcc")
	}
	return []trace.Workload{w}
}

// BenchmarkCampaignBatch measures an 8-config campaign advanced in lockstep
// over a single trace walk — the one-pass scheduling the experiment engine
// uses for same-trace groups. Compare against BenchmarkCampaignSerial: the
// configs, refs and results are identical, only the walk count differs.
func BenchmarkCampaignBatch(b *testing.B) {
	const refs = 20_000
	ws := campaignWorkload(b)
	opts := campaignRoster(refs)
	sim.Run(ws, opts[0]) // materialize the shared trace outside the timer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunBatch(ws, opts)
	}
	total := float64(refs*len(opts)) * float64(b.N)
	b.ReportMetric(b.Elapsed().Seconds()*1e9/total, "ns/ref")
}

// BenchmarkCampaignSerial runs the same campaign config-at-a-time, walking
// the trace once per config — the pre-batching schedule.
func BenchmarkCampaignSerial(b *testing.B) {
	const refs = 20_000
	ws := campaignWorkload(b)
	opts := campaignRoster(refs)
	sim.Run(ws, opts[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, o := range opts {
			sim.Run(ws, o)
		}
	}
	total := float64(refs*len(opts)) * float64(b.N)
	b.ReportMetric(b.Elapsed().Seconds()*1e9/total, "ns/ref")
}
