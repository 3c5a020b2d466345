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
// differential tests can assert bit-identity without chasing live pointers.
type resultSnapshot struct {
	IPC              []float64
	Cycles           uint64
	Coverage         float64
	MispredRate      float64
	Accuracy         float64
	AvgBandwidthGBps float64
	Pollution        [3]float64

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
	}
	for i, l := range m.lanes {
		p := l.ad.port
		s.PortStats = append(s.PortStats, p.Stats())
		s.Useful = append(s.Useful, p.UsefulPrefetches())
		s.Unused = append(s.Unused, p.UnusedPrefetches())
		s.L1Stats = append(s.L1Stats, p.L1().Stats())
		s.L2Stats = append(s.L2Stats, p.L2().Stats())
		if i == 0 {
			// The LLC is shared; record it once.
			s.LLCStats = p.SharedLLC().Stats()
		}
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

// runBoth simulates the same job twice — once fully optimized (open-addressed
// memory-system structures, hashed prefetcher-model lookups, replayed
// materialized traces) and once fully in reference mode (map-based in-flight
// tracking, linear MSHR and model scans, per-probe divisions, fresh
// generators) — and returns both snapshots.
func runBoth(ws []trace.Workload, opt Options) (optimized, reference resultSnapshot) {
	opt.referenceMemsys, opt.referenceModels, opt.directGeneration = false, false, false
	optimized = runSnapshot(ws, opt)
	opt.referenceMemsys, opt.referenceModels, opt.directGeneration = true, true, true
	reference = runSnapshot(ws, opt)
	return optimized, reference
}

// TestEquivalenceSingleThread is the tentpole's differential acceptance
// test: for one workload of every category on the paper's single-thread
// machine, the open-addressed in-flight table and the O(1) MSHR ring produce
// a bit-identical Result — every field, every stats counter — versus the
// structures they replaced.
func TestEquivalenceSingleThread(t *testing.T) {
	for _, cat := range trace.Categories {
		ws := trace.ByCategory(cat)
		if len(ws) == 0 {
			t.Fatalf("category %s has no workloads", cat)
		}
		w := ws[0]
		for _, pf := range []PF{PFDSPatchSPP, PFESPP} {
			opt := DefaultST()
			opt.Refs = 6_000
			opt.L2 = pf
			got, want := runBoth([]trace.Workload{w}, opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s/%s: optimized result differs from reference\noptimized: %+v\nreference: %+v",
					cat, w.Name, pf, got, want)
			}
		}
	}
}

// TestEquivalenceMultiProgrammed repeats the differential check on the
// 4-core DefaultMP machine, where ports contend for the shared LLC and DRAM.
func TestEquivalenceMultiProgrammed(t *testing.T) {
	mix1 := []trace.Workload{
		trace.ByCategory(trace.Client)[0],
		trace.ByCategory(trace.HPC)[0],
		trace.ByCategory(trace.ISPEC06)[0],
		trace.ByCategory(trace.Cloud)[0],
	}
	mix2 := []trace.Workload{
		trace.ByCategory(trace.Server)[0],
		trace.ByCategory(trace.FSPEC06)[0],
		trace.ByCategory(trace.FSPEC17)[0],
		trace.ByCategory(trace.SYSmark)[0],
	}
	for i, mix := range [][]trace.Workload{mix1, mix2} {
		for _, pf := range []PF{PFDSPatchSPP, PFSPP} {
			opt := DefaultMP()
			opt.Refs = 4_000
			opt.L2 = pf
			got, want := runBoth(mix, opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("mix%d/%s: optimized MP result differs from reference\noptimized: %+v\nreference: %+v",
					i+1, pf, got, want)
			}
		}
	}
}

// TestEquivalenceModelRoster extends the differential check to every
// prefetcher model whose lookup structures this PR rewrote — SMS's AT/FT
// indexes, AMPM's map index, BOP, and the triple composite — on workloads
// picked to stress each model's structures (footprint-heavy, streaming,
// pointer-chasing).
func TestEquivalenceModelRoster(t *testing.T) {
	names := []string{"tpcc", "linpack", "mcf"}
	for _, name := range names {
		w, ok := trace.ByName(name)
		if !ok {
			t.Fatalf("roster is missing %s", name)
		}
		for _, pf := range []PF{PFSMS, PFAMPM, PFBOP, PFSMS256SPP, PFTriple} {
			opt := DefaultST()
			opt.Refs = 6_000
			opt.L2 = pf
			got, want := runBoth([]trace.Workload{w}, opt)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: optimized result differs from reference\noptimized: %+v\nreference: %+v",
					name, pf, got, want)
			}
		}
	}
}

// batchRoster builds a deterministic pseudo-random roster of heterogeneous
// configurations sharing one trace identity (refs, seed): mixed prefetchers,
// LLC sizes, DRAM geometries, with the L1 stride toggle and pollution
// tracking sprinkled in. The rand seed is fixed so failures reproduce.
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
			t.Errorf("%s: config %d (%s, llc=%d, dram=%+v, noL1=%v, poll=%v): batch result differs from serial\nbatch:  %+v\nserial: %+v",
				label, i, o.L2, o.LLCBytes, o.DRAM, o.NoL1Stride, o.TrackPollution, got, want)
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

// TestEquivalenceBaseline covers the no-L2-prefetcher path (stride L1 only),
// which every figure's baseline runs through.
func TestEquivalenceBaseline(t *testing.T) {
	for _, cat := range trace.Categories {
		w := trace.ByCategory(cat)[0]
		opt := DefaultST()
		opt.Refs = 6_000
		opt.L2 = PFNone
		got, want := runBoth([]trace.Workload{w}, opt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: optimized baseline differs from reference", cat, w.Name)
		}
	}
}
