package experiments

import (
	"context"
	"testing"
	"time"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

func tinyJob(t *testing.T, name string, refs int, pf sim.PF) Job {
	t.Helper()
	w, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	opt := sim.DefaultST()
	opt.Refs = refs
	opt.Seed = 1
	opt.L2 = pf
	return SingleJob(w, opt)
}

func TestCountersTrackSimsAndMemoHits(t *testing.T) {
	r := NewRunner(1)
	j := tinyJob(t, "linpack", 700, sim.PFNone)

	before := r.Counters()
	if before != (Counters{}) {
		t.Fatalf("fresh runner has non-zero counters: %+v", before)
	}
	r.RunAllCtx(context.Background(), []Job{j}, 1)
	mid := r.Counters()
	if mid.Sims != 1 || mid.MemoHits != 0 {
		t.Fatalf("after cold run: %+v", mid)
	}
	if mid.RefsSimulated != 700 {
		t.Errorf("RefsSimulated = %d, want 700", mid.RefsSimulated)
	}
	if mid.SimNanos == 0 {
		t.Error("SimNanos not accounted")
	}
	r.RunAllCtx(context.Background(), []Job{j, j}, 1)
	after := r.Counters()
	if after.Sims != 1 {
		t.Errorf("memoized re-run simulated again: Sims = %d", after.Sims)
	}
	if after.MemoHits != 2 {
		t.Errorf("MemoHits = %d, want 2", after.MemoHits)
	}
}

func TestCountersDiskHit(t *testing.T) {
	dir := t.TempDir()
	r := NewRunner(1)
	if err := r.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	j := tinyJob(t, "tpcc", 600, sim.PFNone)
	r.RunAllCtx(context.Background(), []Job{j}, 1)
	if c := r.Counters(); c.Sims != 1 || c.DiskHits != 0 {
		t.Fatalf("cold run counters: %+v", c)
	}
	// A fresh runner sharing the cache dir models a second process: the run
	// must be served from disk without simulating.
	r2 := NewRunner(1)
	if err := r2.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	r2.RunAllCtx(context.Background(), []Job{j}, 1)
	if c := r2.Counters(); c.Sims != 0 || c.DiskHits != 1 {
		t.Fatalf("disk-served run counters: %+v", c)
	}
}

func TestRunAllCtxCancelFillsPlaceholders(t *testing.T) {
	r := NewRunner(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []Job{
		tinyJob(t, "linpack", 500_000, sim.PFNone),
		{Workloads: []trace.Workload{wlByName(t, "tpcc"), wlByName(t, "linpack")},
			Opt: func() sim.Options { o := sim.DefaultMP(); o.Refs = 500_000; return o }()},
	}
	start := time.Now()
	results, err := r.RunAllCtx(ctx, jobs, 2)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("canceled batch still simulated")
	}
	if len(results[0].IPC) != 1 || len(results[1].IPC) != 2 {
		t.Fatalf("placeholder IPC lanes wrong: %v / %v", results[0].IPC, results[1].IPC)
	}
	if c := r.Counters(); c.Sims != 0 {
		t.Errorf("canceled batch counted %d sims", c.Sims)
	}
}

func wlByName(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, ok := trace.ByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return w
}

func TestCanceledRunDoesNotPoisonMemo(t *testing.T) {
	r := NewRunner(1)
	j := tinyJob(t, "linpack", 400_000, sim.PFNone)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.RunAllCtx(ctx, []Job{j}, 1); err == nil {
		t.Fatal("canceled run reported no error")
	}
	// The same job under a live context must simulate for real.
	results, err := r.RunAllCtx(context.Background(), []Job{j}, 1)
	if err != nil {
		t.Fatalf("post-cancel rerun: %v", err)
	}
	if results[0].IPC[0] <= 0 {
		t.Fatalf("post-cancel rerun served the poisoned entry: %+v", results[0])
	}
	if c := r.Counters(); c.Sims != 1 {
		t.Errorf("Sims = %d, want 1", c.Sims)
	}
}

// TestPanickingRunDoesNotPoisonMemo: a simulation that panics must not
// leave a completed memo entry holding a zero Result — the panic re-raises
// for the caller, the entry is dropped, and a later valid identical key
// re-simulates.
func TestPanickingRunDoesNotPoisonMemo(t *testing.T) {
	r := NewRunner(1)
	bad := tinyJob(t, "linpack", 800, sim.PFNone)
	bad.Opt.LLCBytes = 100_000 // 97 LLC sets: cache.New panics

	mustPanic := func() (recovered any) {
		defer func() { recovered = recover() }()
		r.RunAllCtx(context.Background(), []Job{bad}, 1)
		return nil
	}
	if first := mustPanic(); first == nil {
		t.Fatal("expected the malformed LLC size to panic")
	}
	// The poisoned-entry bug: the second identical submission was served a
	// zero Result as a memo hit. It must panic again instead.
	if second := mustPanic(); second == nil {
		t.Fatal("second identical submission was served a poisoned memo entry")
	}
	if c := r.Counters(); c.MemoHits != 0 {
		t.Errorf("panicking runs counted %d memo hits", c.MemoHits)
	}
}

func TestRegistryCoversCLIOrder(t *testing.T) {
	want := []string{
		"table1", "table3", "fig1", "fig4", "fig5", "fig6", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "headline",
	}
	got := ExperimentIDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	for _, id := range want {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Errorf("ExperimentByID(%q) missing", id)
			continue
		}
		if e.Run == nil || e.Format == nil || e.Title == "" {
			t.Errorf("%s: incomplete registry entry", id)
		}
	}
	if _, ok := ExperimentByID("fig99"); ok {
		t.Error("ExperimentByID accepted an unknown id")
	}
}

func TestScaleWithContextCancelsExperiment(t *testing.T) {
	ResetMemo()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Scale{Refs: 400_000, PerCategory: 2, MPMixes: 2, Seed: 1, Parallel: 1}.WithContext(ctx)
	start := time.Now()
	Fig4(s) // value is meaningless under a canceled context and discarded
	if time.Since(start) > 10*time.Second {
		t.Fatal("canceled Fig4 ran to completion")
	}
}
