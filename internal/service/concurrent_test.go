package service

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

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

// TestCacheEndpointCountsEntries: after one run, GET /v1/cache reports the
// entry the run wrote to the daemon's run cache.
func TestCacheEndpointCountsEntries(t *testing.T) {
	experiments.ResetMemo()
	t.Cleanup(func() {
		if err := experiments.SetCacheDir(""); err != nil {
			t.Error(err)
		}
	})
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, CacheDir: t.TempDir()})
	ctx := ctxT(t)
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"tpcc"}, Refs: 1_150, L2: "spp"})
	if err != nil {
		t.Fatal(err)
	}
	if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("run: %v status %q (%s)", err, j.Status, j.Error)
	}
	var info struct {
		Enabled bool  `json:"enabled"`
		Entries int   `json:"entries"`
		Bytes   int64 `json:"bytes"`
	}
	if err := c.do(ctx, "GET", "/v1/cache", nil, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || info.Entries < 1 || info.Bytes <= 0 {
		t.Fatalf("/v1/cache = %+v, want at least one entry of more than 0 bytes", info)
	}
}

// TestStoreDirOnlyDaemonCachesRuns: a daemon given only a store dir keeps
// its /v1/runs results in that store, which is also its run cache. A
// restarted daemon on the same directory, on an empty memo, serves a
// resubmission without simulating (dspatchd_engine_sims_total flat), and
// /v1/cache and /healthz report the cache as on.
func TestStoreDirOnlyDaemonCachesRuns(t *testing.T) {
	experiments.SetResultStore(nil)
	experiments.ResetMemo()
	dir := t.TempDir()
	ctx := ctxT(t)
	spec := RunSpec{Workloads: []string{"tpcc"}, Refs: 1_170, L2: "spp"}
	run := func(c *Client) JobView {
		j, err := c.SubmitRun(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
			t.Fatalf("run: %v status %q (%s)", err, j.Status, j.Error)
		}
		return j
	}
	sims := func(c *Client) string {
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return metricValue(t, text, "dspatchd_engine_sims_total")
	}

	s1, c1 := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, StoreDir: dir})
	first := run(c1)
	s1.Drain(ctx)

	experiments.ResetMemo() // a restart: only the store survives
	_, c2 := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, StoreDir: dir})
	before := sims(c2)
	second := run(c2)
	if after := sims(c2); after != before {
		t.Errorf("resubmission after a restart moved dspatchd_engine_sims_total %s -> %s", before, after)
	}
	if string(first.Result) != string(second.Result) {
		t.Errorf("stored run differs:\n%s\n%s", first.Result, second.Result)
	}

	var info struct {
		Enabled bool   `json:"enabled"`
		Dir     string `json:"dir"`
		Entries int    `json:"entries"`
	}
	if err := c2.do(ctx, "GET", "/v1/cache", nil, &info); err != nil {
		t.Fatal(err)
	}
	if !info.Enabled || info.Dir != dir || info.Entries < 1 {
		t.Errorf("/v1/cache = %+v, want enabled at %s with at least one entry", info, dir)
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.CacheEnabled {
		t.Error("/healthz reports cache_enabled false for a store-dir daemon")
	}
}

// TestIdleWorkerTakesQueuedCampaign: the job queue is work-conserving. With
// two workers busy on one long campaign, a second campaign starts on the
// idle worker at once instead of waiting for the first to finish, and two
// identical campaigns in flight at once still simulate each run only once.
func TestIdleWorkerTakesQueuedCampaign(t *testing.T) {
	experiments.ResetMemo()
	_, c := newTestServer(t, Config{JobWorkers: 2, SimWorkers: 1})
	ctx := ctxT(t)

	// Both specs landed on one worker's queue under the former per-spec
	// routing (fnv-32a of "campaign" plus the spec's JSON, modulo
	// JobWorkers), found by evaluating that rule on tinyCampaign over odd
	// refs from 781 on: 791 is the first that shares maxRefs's queue.
	long, err := c.SubmitCampaign(ctx, tinyCampaign(maxRefs))
	if err != nil {
		t.Fatal(err)
	}
	short, err := c.SubmitCampaign(ctx, tinyCampaign(791))
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		sv, err := c.Job(ctx, short.ID)
		if err != nil {
			t.Fatal(err)
		}
		lv, err := c.Job(ctx, long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if lv.Status.Terminal() {
			t.Fatalf("long campaign ended %q while the second campaign was %q", lv.Status, sv.Status)
		}
		if sv.Status != StatusQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second campaign still queued behind the first with a worker idle")
		}
	}
	if _, err := c.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, short.ID); err != nil {
		t.Fatal(err)
	}

	// One spec submitted twice at once: both workers run it, and the later
	// request waits on the memo entries the earlier one is filling.
	spec := tinyCampaign(799)
	const runs = 4 // two mixes × {none, spp}
	before := experiments.EngineCounters()
	var ids []string
	for range 2 {
		j, err := c.SubmitCampaign(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	var streams [][]json.RawMessage
	for _, id := range ids {
		j, err := c.Wait(ctx, id)
		if err != nil || j.Status != StatusDone {
			t.Fatalf("duplicate campaign: %v status %q (%s)", err, j.Status, j.Error)
		}
		recs, err := c.CampaignRecords(ctx, id, 0)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, recs[:len(recs)-1]) // the summary carries telemetry
	}
	if sims := experiments.EngineCounters().Sims - before.Sims; sims != runs {
		t.Errorf("two identical campaigns simulated %d runs, want %d", sims, runs)
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Errorf("identical campaigns streamed different records:\n%s\n%s", streams[0], streams[1])
	}
}
