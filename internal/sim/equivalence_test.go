package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dspatch/internal/cache"
	"dspatch/internal/dram"
	"dspatch/internal/memsys"
	"dspatch/internal/trace"
)

// resultSnapshot flattens everything observable about a run — the Result
// fields plus every per-port stats counter — into a comparable value, so the
// batch-vs-serial tests can assert bit-identity without chasing live
// pointers.
type resultSnapshot struct {
	IPC              []float64
	Cycles           uint64
	Coverage         float64
	MispredRate      float64
	Accuracy         float64
	AvgBandwidthGBps float64
	Pollution        [3]float64
	Prefetchers      []PrefetcherStats

	PortStats  []memsys.CoverageStats
	Useful     []uint64
	Unused     []uint64
	L1Stats    []cache.Stats
	L2Stats    []cache.Stats
	LLCStats   cache.Stats
	DSPatchHit []uint64 // DSPatch Triggers counter per port, when present
}

// snapshot finishes m — a machine RunCtx or RunBatchCtx would build — and
// reads its live memory system alongside the Result.
func snapshot(m *machine) resultSnapshot {
	r := m.finish()
	s := resultSnapshot{
		IPC:              r.IPC,
		Cycles:           r.Cycles,
		Coverage:         r.Coverage,
		MispredRate:      r.MispredRate,
		Accuracy:         r.Accuracy,
		AvgBandwidthGBps: r.AvgBandwidthGBps,
		Pollution:        r.Pollution,
		Prefetchers:      r.Prefetchers,
		LLCStats:         m.sys.LLC().Stats(),
	}
	for _, l := range m.lanes {
		p := l.ad.port
		s.PortStats = append(s.PortStats, p.Stats())
		s.Useful = append(s.Useful, p.UsefulPrefetches())
		s.Unused = append(s.Unused, p.UnusedPrefetches())
		s.L1Stats = append(s.L1Stats, p.L1().Stats())
		s.L2Stats = append(s.L2Stats, p.L2().Stats())
		if d := FindDSPatch(p.L2Prefetcher()); d != nil {
			s.DSPatchHit = append(s.DSPatchHit, d.Stats().Triggers)
		}
	}
	return s
}

// runSnapshot simulates ws under opt exactly as Run does and snapshots the
// finished machine.
func runSnapshot(ws []trace.Workload, opt Options) resultSnapshot {
	m, err := runMachine(context.Background(), ws, opt)
	if err != nil {
		panic(err)
	}
	return snapshot(m)
}

// batchRoster builds a deterministic pseudo-random roster of heterogeneous
// configurations sharing one trace identity (refs, seed): mixed prefetchers,
// LLC sizes, DRAM geometries, with the L1 stride toggle, pollution tracking
// and telemetry collection sprinkled in, so one lockstep batch mixes
// stats-on and stats-off members. The rand seed is fixed so failures
// reproduce.
func batchRoster(rng *rand.Rand, base Options, k int) []Options {
	pfs := []PF{PFNone, PFBOP, PFSMS, PFSPP, PFAMPM, PFDSPatch, PFDSPatchSPP, PFSMS256SPP, PFTriple}
	llcs := []int{1 << 20, 2 << 20, 4 << 20}
	drams := []dram.Config{dram.DDR4(1, 2133), dram.DDR4(1, 1600), dram.DDR4(2, 2400)}
	opts := make([]Options, k)
	for i := range opts {
		o := base
		o.L2 = pfs[rng.Intn(len(pfs))]
		o.LLCBytes = llcs[rng.Intn(len(llcs))]
		o.DRAM = drams[rng.Intn(len(drams))]
		o.NoL1Stride = rng.Intn(4) == 0
		o.TrackPollution = rng.Intn(4) == 0
		o.CollectStats = rng.Intn(2) == 0
		opts[i] = o
	}
	return opts
}

// assertBatchMatchesSerial runs the roster once through RunBatch's machines
// and once config-at-a-time through Run's, asserting bit-identical snapshots
// — every Result field and every per-port stats counter.
func assertBatchMatchesSerial(t *testing.T, label string, ws []trace.Workload, opts []Options) {
	t.Helper()
	batch, err := runBatchMachines(context.Background(), ws, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(opts) {
		t.Fatalf("%s: RunBatch built %d machines for %d configs", label, len(batch), len(opts))
	}
	for i, o := range opts {
		got := snapshot(batch[i])
		want := runSnapshot(ws, o)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: config %d (%s, llc=%d, dram=%+v, noL1=%v, poll=%v, stats=%v): batch result differs from serial\nbatch:  %+v\nserial: %+v",
				label, i, o.L2, o.LLCBytes, o.DRAM, o.NoL1Stride, o.TrackPollution, o.CollectStats, got, want)
		}
	}
}

// TestBatchEquivalenceSingleThread is the batching tentpole's acceptance
// test: for one workload of every category, a randomized heterogeneous batch
// of configurations advanced in lockstep over one shared cursor produces
// results bit-identical to one-at-a-time serial runs.
func TestBatchEquivalenceSingleThread(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for _, cat := range trace.Categories {
		ws := trace.ByCategory(cat)
		if len(ws) == 0 {
			t.Fatalf("category %s has no workloads", cat)
		}
		base := DefaultST()
		base.Refs = 5_000
		opts := batchRoster(rng, base, 4+rng.Intn(3))
		assertBatchMatchesSerial(t, string(cat), []trace.Workload{ws[0]}, opts)
	}
}

// TestBatchEquivalenceMultiProgrammed repeats the batch-vs-serial check on
// 4-core mixes, where each machine interleaves its own lanes by core timing
// and the batch must keep per-machine cursors rather than one shared one.
func TestBatchEquivalenceMultiProgrammed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	mix := []trace.Workload{
		trace.ByCategory(trace.Client)[0],
		trace.ByCategory(trace.HPC)[0],
		trace.ByCategory(trace.ISPEC06)[0],
		trace.ByCategory(trace.Cloud)[0],
	}
	base := DefaultMP()
	base.Refs = 3_000
	opts := batchRoster(rng, base, 3)
	assertBatchMatchesSerial(t, "mp-mix", mix, opts)
}

// TestBatchEquivalenceSeeds covers non-default seeds and the degenerate
// one-config batch (which must behave exactly like a serial run).
func TestBatchEquivalenceSeeds(t *testing.T) {
	w, _ := trace.ByName("mcf")
	for _, seed := range []int64{1, 7, 12345} {
		base := DefaultST()
		base.Refs = 4_000
		base.Seed = seed
		opts := []Options{base}
		one := base
		one.L2 = PFDSPatchSPP
		opts = append(opts, one)
		assertBatchMatchesSerial(t, fmt.Sprintf("seed=%d", seed), []trace.Workload{w}, opts)
		assertBatchMatchesSerial(t, fmt.Sprintf("seed=%d/single", seed), []trace.Workload{w}, opts[:1])
	}
}

// TestBatchMismatchedIdentityPanics pins the batch contract: every member
// must share (Refs, Seed).
func TestBatchMismatchedIdentityPanics(t *testing.T) {
	w, _ := trace.ByName("mcf")
	a := DefaultST()
	a.Refs = 1_000
	b := a
	b.Refs = 2_000
	defer func() {
		if recover() == nil {
			t.Fatal("RunBatch accepted mismatched Refs")
		}
	}()
	RunBatch([]trace.Workload{w}, []Options{a, b})
}

// TestRunBatchCtxCanceled pins the cancellation shape: one placeholder per
// config, each with one IPC slot per workload.
func TestRunBatchCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mix := []trace.Workload{
		trace.ByCategory(trace.Client)[0],
		trace.ByCategory(trace.HPC)[0],
		trace.ByCategory(trace.ISPEC06)[0],
		trace.ByCategory(trace.Cloud)[0],
	}
	opt := DefaultMP()
	opt.Refs = 2_000_000 // placeholders must come back without simulating
	res, err := RunBatchCtx(ctx, mix, []Options{opt, opt})
	if err == nil {
		t.Fatal("canceled batch returned nil error")
	}
	if len(res) != 2 {
		t.Fatalf("canceled batch returned %d results, want 2", len(res))
	}
	for i, r := range res {
		if len(r.IPC) != len(mix) {
			t.Errorf("result %d: %d IPC slots, want %d", i, len(r.IPC), len(mix))
		}
	}
}
