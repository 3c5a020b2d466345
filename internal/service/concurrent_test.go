package service

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"dspatch/internal/experiments"
)

// TestConcurrentClientsShareTheCache hammers the daemon from many goroutines
// with overlapping identical and distinct jobs (run under -race in CI) and
// asserts three things: every response for a given spec is byte-identical,
// responses match the direct library path exactly, and the engine simulated
// each distinct configuration exactly once — everything else was a cache
// hit.
func TestConcurrentClientsShareTheCache(t *testing.T) {
	experiments.ResetMemo()
	_, c := newTestServer(t, Config{JobWorkers: 4, SimWorkers: 1, QueueDepth: 64})
	ctx := ctxT(t)

	specs := []RunSpec{
		{Workloads: []string{"linpack"}, Refs: 1_000},
		{Workloads: []string{"linpack"}, Refs: 1_000, L2: "spp"},
		{Workloads: []string{"tpcc"}, Refs: 1_000, L2: "dspatch"},
	}
	const clients = 4 // every client submits every spec: 3 distinct, 12 total
	before := experiments.EngineCounters()

	type outcome struct {
		spec int
		body string
		err  error
	}
	results := make(chan outcome, clients*len(specs))
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si, spec := range specs {
				j, err := c.SubmitRun(ctx, spec)
				if err == nil {
					j, err = c.Wait(ctx, j.ID)
					if err == nil && j.Status != StatusDone {
						err = fmt.Errorf("status %q: %s", j.Status, j.Error)
					}
				}
				results <- outcome{spec: si, body: string(j.Result), err: err}
			}
		}()
	}
	wg.Wait()
	close(results)

	bySpec := make([]map[string]int, len(specs))
	for i := range bySpec {
		bySpec[i] = map[string]int{}
	}
	for o := range results {
		if o.err != nil {
			t.Fatalf("spec %d: %v", o.spec, o.err)
		}
		bySpec[o.spec][o.body]++
	}
	for i, bodies := range bySpec {
		if len(bodies) != 1 {
			t.Errorf("spec %d returned %d distinct result bodies, want 1", i, len(bodies))
		}
	}

	// Responses must equal the direct library path byte for byte.
	for i, spec := range specs {
		norm := spec
		if err := norm.Normalize(); err != nil {
			t.Fatal(err)
		}
		direct, err := experiments.RunJobs(context.Background(), []experiments.Job{norm.Job()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(direct[0])
		if err != nil {
			t.Fatal(err)
		}
		for body := range bySpec[i] {
			if body != string(want) {
				t.Errorf("spec %d: service result differs from library path:\n%s\n%s", i, body, want)
			}
		}
	}

	after := experiments.EngineCounters()
	// 3 distinct configs + their shared-per-options memo misses: each spec is
	// one distinct runKey, so exactly 3 cold simulations; the direct
	// verification calls above were memo hits too.
	if sims := after.Sims - before.Sims; sims != uint64(len(specs)) {
		t.Errorf("engine simulated %d times, want %d (duplicates must hit the memo)", sims, len(specs))
	}
	wantHits := uint64(clients*len(specs) - len(specs) + len(specs)) // duplicates + direct calls
	if hits := after.MemoHits - before.MemoHits; hits < wantHits {
		t.Errorf("memo hits = %d, want >= %d", hits, wantHits)
	}
}

// TestSecondSubmissionServedFromDiskCache is the PR's acceptance criterion:
// with a cache-enabled daemon, resubmitting a job returns byte-identical
// result JSON and completes without invoking the simulator — proven by the
// engine's sim counter staying flat while the disk-hit counter advances.
func TestSecondSubmissionServedFromDiskCache(t *testing.T) {
	cacheDir := t.TempDir()
	experiments.ResetMemo()
	t.Cleanup(func() {
		if err := experiments.SetCacheDir(""); err != nil {
			t.Error(err)
		}
	})
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, CacheDir: cacheDir})
	ctx := ctxT(t)

	spec := RunSpec{Workloads: []string{"tpcc"}, Refs: 1_200, L2: "dspatch+spp"}
	first, err := c.SubmitRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	first, err = c.Wait(ctx, first.ID)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusDone {
		t.Fatalf("first run: %q (%s)", first.Status, first.Error)
	}
	afterFirst := experiments.EngineCounters()

	// Model a daemon restart: the in-process memo is gone, only the disk
	// cache remains.
	experiments.ResetMemo()

	second, err := c.SubmitRun(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err = c.Wait(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusDone {
		t.Fatalf("second run: %q (%s)", second.Status, second.Error)
	}
	if string(first.Result) != string(second.Result) {
		t.Fatalf("second submission not byte-identical:\n%s\n%s", first.Result, second.Result)
	}
	if first.ID == second.ID {
		t.Fatal("distinct submissions shared a job id")
	}

	afterSecond := experiments.EngineCounters()
	if sims := afterSecond.Sims - afterFirst.Sims; sims != 0 {
		t.Errorf("second submission invoked the simulator %d times, want 0", sims)
	}
	if hits := afterSecond.DiskHits - afterFirst.DiskHits; hits != 1 {
		t.Errorf("disk cache hits = %d, want 1", hits)
	}
}
