package experiments

import (
	"context"
	"reflect"
	"testing"
	"time"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// batchJobs builds k memoizable jobs sharing one trace identity (workload,
// seed, refs) under distinct prefetchers, so the planner groups them into one
// lockstep batch.
func batchJobs(t *testing.T, name string, refs int, pfs ...sim.PF) []Job {
	t.Helper()
	jobs := make([]Job, len(pfs))
	for i, pf := range pfs {
		jobs[i] = tinyJob(t, name, refs, pf)
	}
	return jobs
}

func TestBatchGroupingRunsOneBatch(t *testing.T) {
	r := NewRunner(1)
	jobs := batchJobs(t, "linpack", 700, sim.PFNone, sim.PFSPP, sim.PFBOP, sim.PFDSPatchSPP)
	r.RunAllCtx(context.Background(), jobs, 1)
	c := r.Counters()
	if c.Sims != 4 || c.Batches != 1 || c.MemoHits != 0 {
		t.Fatalf("cold batched run counters: %+v", c)
	}
	if c.RefsSimulated != 4*700 {
		t.Errorf("RefsSimulated = %d, want %d", c.RefsSimulated, 4*700)
	}
	// Every config is now memoized: a resubmission batches nothing.
	r.RunAllCtx(context.Background(), jobs, 1)
	c = r.Counters()
	if c.Sims != 4 || c.Batches != 1 || c.MemoHits != 4 {
		t.Fatalf("warm rerun counters: %+v", c)
	}
}

// TestBatchMatchesSerialResults is the engine-level half of the equivalence
// story: the same heterogeneous job list — mixed prefetchers, LLC sizes, a
// multi-lane mix, and a pollution-tracking job riding along in a batch —
// produces, through the runner's lockstep batches, results bit-identical to
// a plain sim.Run of each job.
func TestBatchMatchesSerialResults(t *testing.T) {
	jobs := batchJobs(t, "tpcc", 900, sim.PFNone, sim.PFSPP, sim.PFDSPatch)
	big := tinyJob(t, "tpcc", 900, sim.PFSPP)
	big.Opt.LLCBytes = 4 << 20
	jobs = append(jobs, big)
	poll := tinyJob(t, "tpcc", 900, sim.PFStreamer)
	poll.Opt.TrackPollution = true
	jobs = append(jobs, poll)
	mp := Job{
		Workloads: []trace.Workload{wlByName(t, "tpcc"), wlByName(t, "linpack")},
		Opt: func() sim.Options {
			o := sim.DefaultMP()
			o.Refs = 900
			return o
		}(),
	}
	jobs = append(jobs, mp, tinyJob(t, "mcf", 900, sim.PFSPP))

	r := NewRunner(2)
	got, _ := r.RunAllCtx(context.Background(), jobs, 2)
	if c := r.Counters(); c.Batches == 0 {
		t.Fatalf("runner executed no batches: %+v", c)
	}
	for i, j := range jobs {
		if want := sim.Run(j.Workloads, j.Opt); !reflect.DeepEqual(got[i], want) {
			t.Errorf("job %d: runner result differs from sim.Run\nrunner:  %+v\nsim.Run: %+v", i, got[i], want)
		}
	}
}

// TestCanceledBatchDoesNotPoisonSiblingMemo is the PR's cancellation edge: a
// batch canceled mid-flight records the cancellation into every member's memo
// entry and drops them all — no sibling config may be left memoized with a
// placeholder result. The identical resubmission under a live context must
// re-simulate every config for real.
func TestCanceledBatchDoesNotPoisonSiblingMemo(t *testing.T) {
	r := NewRunner(1)
	jobs := batchJobs(t, "linpack", 400_000, sim.PFNone, sim.PFSPP, sim.PFBOP, sim.PFDSPatchSPP)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	if _, err := r.RunAllCtx(ctx, jobs, 1); err == nil {
		t.Fatal("canceled batch reported no error")
	}
	if c := r.Counters(); c.Sims != 0 {
		t.Fatalf("canceled batch still recorded %d sims", c.Sims)
	}
	results, err := r.RunAllCtx(context.Background(), jobs, 1)
	if err != nil {
		t.Fatalf("post-cancel rerun: %v", err)
	}
	for i, res := range results {
		if res.IPC[0] <= 0 {
			t.Errorf("job %d: post-cancel rerun served a poisoned sibling entry: %+v", i, res)
		}
	}
	if c := r.Counters(); c.Sims != 4 || c.MemoHits != 0 {
		t.Errorf("post-cancel rerun counters: %+v", c)
	}
}

// TestPanickingBatchDoesNotPoisonSiblings mirrors the serial panic-safety
// test: a malformed config panicking inside a batch re-raises for the caller
// and leaves no sibling entry closed over a zero result.
func TestPanickingBatchDoesNotPoisonSiblings(t *testing.T) {
	r := NewRunner(1)
	good := tinyJob(t, "linpack", 800, sim.PFNone)
	bad := tinyJob(t, "linpack", 800, sim.PFSPP)
	bad.Opt.LLCBytes = 100_000 // 97 LLC sets: cache.New panics

	recovered := func() (p any) {
		defer func() { p = recover() }()
		r.RunAllCtx(context.Background(), []Job{good, bad}, 1)
		return nil
	}()
	if recovered == nil {
		t.Fatal("expected the malformed LLC size to panic through the batch")
	}
	results, _ := r.RunAllCtx(context.Background(), []Job{good}, 1)
	if results[0].IPC[0] <= 0 {
		t.Fatalf("sibling entry poisoned by the panicking batch: %+v", results[0])
	}
	if c := r.Counters(); c.MemoHits != 0 {
		t.Errorf("panicking batch counted %d memo hits", c.MemoHits)
	}
}

// TestBatchSkipsDiskCachedConfigs pins the cache-first contract: configs the
// persistent store already holds are served from disk and never join the
// batch.
func TestBatchSkipsDiskCachedConfigs(t *testing.T) {
	dir := t.TempDir()
	warm := NewRunner(1)
	if err := warm.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	seed := batchJobs(t, "tpcc", 650, sim.PFNone)
	warm.RunAllCtx(context.Background(), seed, 1)

	r := NewRunner(1)
	if err := r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	jobs := batchJobs(t, "tpcc", 650, sim.PFNone, sim.PFSPP, sim.PFBOP)
	r.RunAllCtx(context.Background(), jobs, 1)
	c := r.Counters()
	if c.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", c.DiskHits)
	}
	if c.Sims != 2 || c.Batches != 1 {
		t.Errorf("batch after disk hit: %+v", c)
	}
}
