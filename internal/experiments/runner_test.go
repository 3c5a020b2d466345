package experiments

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// eqFloat is bit-level equality with NaN == NaN (empty categories render as
// NaN at tiny scales).
func eqFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func eqFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !eqFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func eqCategoryResult(a, b CategoryResult) bool {
	if len(a.Delta) != len(b.Delta) || !eqFloats(a.Geomean, b.Geomean) || a.Dropped != b.Dropped {
		return false
	}
	for i := range a.Delta {
		if !eqFloats(a.Delta[i], b.Delta[i]) {
			return false
		}
	}
	return true
}

func TestRunAllPreservesJobOrder(t *testing.T) {
	ws := trace.Workloads()[:6]
	jobs := make([]Job, len(ws))
	for i, w := range ws {
		opt := sim.DefaultST()
		opt.Refs = 2_000
		jobs[i] = SingleJob(w, opt)
	}
	r := NewRunner(0)
	serial, _ := r.RunAllCtx(context.Background(), jobs, 1)
	parallel, _ := NewRunner(0).RunAllCtx(context.Background(), jobs, 8)
	for i := range jobs {
		if !eqFloats(serial[i].IPC, parallel[i].IPC) {
			t.Errorf("job %d (%s): parallel IPC %v != serial %v",
				i, ws[i].Name, parallel[i].IPC, serial[i].IPC)
		}
	}
}

// runOne runs a single job on r, serially.
func runOne(r *Runner, j Job) sim.Result {
	results, _ := r.RunAllCtx(context.Background(), []Job{j}, 1)
	return results[0]
}

func TestRunMemoization(t *testing.T) {
	w := trace.Workloads()[0]
	opt := sim.DefaultST()
	opt.Refs = 2_000

	r := NewRunner(1)
	first := runOne(r, SingleJob(w, opt))
	if len(r.memo) != 1 {
		t.Fatalf("baseline run should populate the memo, len = %d", len(r.memo))
	}
	second := runOne(r, SingleJob(w, opt))
	if !eqFloats(first.IPC, second.IPC) {
		t.Errorf("memoized result differs: %v vs %v", first.IPC, second.IPC)
	}

	// A prefetcher run is memoized too (figures share identical runs), under
	// its own key.
	withPF := opt
	withPF.L2 = sim.PFSPP
	pf1 := runOne(r, SingleJob(w, withPF))
	if len(r.memo) != 2 {
		t.Fatalf("PF run should get its own memo entry, len = %d", len(r.memo))
	}
	pf2 := runOne(r, SingleJob(w, withPF))
	if !eqFloats(pf1.IPC, pf2.IPC) {
		t.Errorf("memoized PF result differs: %v vs %v", pf1.IPC, pf2.IPC)
	}
	if eqFloats(first.IPC, pf1.IPC) {
		t.Error("baseline and PF runs should not share a key")
	}

	// A pollution-tracking run is memoized under its own key, and its
	// second call is a memo hit carrying the identical taxonomy.
	tracked := tinyJob(t, "mcf", 10_000, sim.PFStreamer)
	tracked.Opt.TrackPollution = true
	poll1 := runOne(r, tracked)
	if len(r.memo) != 3 {
		t.Fatalf("pollution-tracking run should get its own memo entry, len = %d", len(r.memo))
	}
	if poll1.Pollution == ([3]float64{}) {
		t.Fatal("pollution-tracking run reported no pollution fractions")
	}
	hits := r.Counters().MemoHits
	poll2 := runOne(r, tracked)
	if got := r.Counters().MemoHits - hits; got != 1 {
		t.Errorf("second pollution run: %d memo hits, want 1", got)
	}
	if !reflect.DeepEqual(poll1, poll2) {
		t.Errorf("memoized pollution result differs:\n%+v\n%+v", poll1, poll2)
	}
}

func TestMemoKeyIgnoresSMSPHTEntries(t *testing.T) {
	w := trace.Workloads()[0]
	opt := sim.DefaultST()
	opt.Refs = 2_000

	a := memoizable(SingleJob(w, opt))
	swept := opt
	swept.SMSPHTEntries = 256
	b := memoizable(SingleJob(w, swept))
	if a != b {
		t.Error("Fig. 5's PHT sweep should share one baseline per workload")
	}

	diff := opt
	diff.Refs = 4_000
	c := memoizable(SingleJob(w, diff))
	if a == c {
		t.Error("different Refs must produce a different baseline key")
	}
}

func TestMemoKeySeparatesMixes(t *testing.T) {
	opt := sim.DefaultMP()
	opt.Refs = 2_000
	w0, w1 := trace.Workloads()[0], trace.Workloads()[1]
	a := memoizable(Job{Workloads: []trace.Workload{w0, w1}, Opt: opt})
	b := memoizable(Job{Workloads: []trace.Workload{w1, w0}, Opt: opt})
	c := memoizable(Job{Workloads: []trace.Workload{w0, w1}, Opt: opt})
	if a == b {
		t.Error("mix order is core assignment; reordering must change the key")
	}
	if a != c {
		t.Error("identical mixes must share a key")
	}
}

// TestParallelSerialEquivalence is the tentpole's acceptance test: with a
// fixed Seed, any worker count produces bit-identical figure rows.
func TestParallelSerialEquivalence(t *testing.T) {
	s := tiny()

	serial := Fig4(s.WithParallel(1))
	parallel := Fig4(s.WithParallel(4))
	if !eqCategoryResult(serial, parallel) {
		t.Errorf("Fig4 parallel != serial:\nserial   %+v\nparallel %+v", serial, parallel)
	}

	mpSerial := Fig17(s.WithParallel(1))
	mpParallel := Fig17(s.WithParallel(4))
	if !eqCategoryResult(mpSerial, mpParallel) {
		t.Errorf("Fig17 parallel != serial:\nserial   %+v\nparallel %+v", mpSerial, mpParallel)
	}

	f5Serial := Fig5(s.WithParallel(1))
	f5Parallel := Fig5(s.WithParallel(4))
	for i := range f5Serial {
		if !eqFloat(f5Serial[i].DeltaPct, f5Parallel[i].DeltaPct) {
			t.Errorf("Fig5 row %d: parallel %+v != serial %+v", i, f5Parallel[i], f5Serial[i])
		}
	}
}

// TestMemoSharedAcrossFigures checks the process-wide engine reuses runs
// between figures that share a machine configuration.
func TestMemoSharedAcrossFigures(t *testing.T) {
	ResetMemo()
	base := EngineCounters().Sims
	sims := func() uint64 { return EngineCounters().Sims - base }
	s := tiny()
	Fig4(s)
	after4 := sims()
	if after4 == 0 {
		t.Fatal("Fig4 should memoize its runs")
	}
	// Rerunning the same figure simulates nothing new.
	Fig4(s)
	if got := sims(); got != after4 {
		t.Errorf("rerunning Fig4 simulated again: %d runs, then %d", after4, got)
	}
	// Fig12 shares Fig4's baselines and BOP/SMS/SPP runs; only its DSPatch
	// and DSPatch+SPP points are new.
	Fig12(s)
	after12 := sims()
	if after12 <= after4 {
		t.Errorf("Fig12 should add its DSPatch runs to the memo (%d -> %d)", after4, after12)
	}
	if added := after12 - after4; added >= after4 {
		t.Errorf("Fig12 added %d entries to %d; expected reuse of the shared runs", added, after4)
	}
	Fig12(s)
	if got := sims(); got != after12 {
		t.Errorf("rerunning Fig12 simulated again: %d runs, then %d", after12, got)
	}
}
