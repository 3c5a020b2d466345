package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
	"dspatch/internal/sweep"
)

// newTestServer starts a Server with its HTTP front end and returns a client
// bound to it. The worker pool is drained on cleanup.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if cfg.StoreDir != "" || cfg.CacheDir != "" {
		// The daemon installed its store as the process-wide engine's run
		// cache; later tests must not write into this test's temp dir.
		t.Cleanup(func() { experiments.SetResultStore(nil) })
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		hs.Close()
	})
	return s, NewClient(hs.URL)
}

func ctxT(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// waitDequeued polls a job until a worker has taken it off the queue and
// returns the status it then reads: running, or already terminal when the
// job was short. A drain cancels the jobs a worker dequeues after it began,
// so a test that drains around an in-flight job waits here first.
func waitDequeued(t *testing.T, c *Client, id string) JobStatus {
	t.Helper()
	ctx := ctxT(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, err := c.Job(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status != StatusQueued {
			return v.Status
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestHealthz(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	h, err := c.Health(ctxT(t))
	if err != nil {
		t.Fatalf("Health: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.JobWorkers != 1 || h.SimWorkers < 1 {
		t.Errorf("worker gauges: %+v", h)
	}
}

func TestRunJobMatchesLibraryPath(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)
	spec := RunSpec{Workloads: []string{"linpack"}, Refs: 900, L2: "spp"}
	j, err := c.SubmitRun(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitRun: %v", err)
	}
	if j.Status != StatusQueued && j.Status != StatusRunning && j.Status != StatusDone {
		t.Fatalf("fresh job status = %q", j.Status)
	}
	if j.Run == nil || j.Run.Seed != 1 || j.Run.LLCBytes != 2<<20 {
		t.Fatalf("normalized spec not echoed: %+v", j.Run)
	}
	j, err = c.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status != StatusDone {
		t.Fatalf("status = %q (error %q)", j.Status, j.Error)
	}

	// The service result must be byte-identical to the library path.
	norm := spec
	if err := norm.Normalize(); err != nil {
		t.Fatal(err)
	}
	results, err := experiments.RunJobs(context.Background(), []experiments.Job{norm.Job()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(j.Result) != string(want) {
		t.Fatalf("service result differs from library result:\n%s\n%s", j.Result, want)
	}
	if res.IPC[0] <= 0 {
		t.Fatal("degenerate run")
	}
}

func TestExperimentJobTable1(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitExperiment(ctx, "table1", ScaleSpec{})
	if err != nil {
		t.Fatalf("SubmitExperiment: %v", err)
	}
	j, err = c.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status != StatusDone {
		t.Fatalf("status = %q (error %q)", j.Status, j.Error)
	}
	var rows []experiments.StorageRow
	if err := json.Unmarshal(j.Result, &rows); err != nil {
		t.Fatalf("result is not a storage table: %v\n%s", err, j.Result)
	}
	if len(rows) == 0 {
		t.Fatal("empty storage table")
	}
	if !strings.Contains(j.Text, "Table 1") {
		t.Errorf("rendered text missing title:\n%s", j.Text)
	}
}

func TestExperimentJobFig4Tiny(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 2})
	ctx := ctxT(t)
	j, err := c.SubmitExperiment(ctx, "fig4", ScaleSpec{Refs: 800, PerCategory: 1})
	if err != nil {
		t.Fatalf("SubmitExperiment: %v", err)
	}
	j, err = c.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status != StatusDone {
		t.Fatalf("status = %q (error %q)", j.Status, j.Error)
	}
	var res struct {
		Prefetchers []string `json:"Prefetchers"`
	}
	if err := json.Unmarshal(j.Result, &res); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if len(res.Prefetchers) != 3 {
		t.Errorf("prefetchers = %v", res.Prefetchers)
	}
	if !strings.Contains(j.Text, "GEOMEAN") {
		t.Errorf("text table missing GEOMEAN:\n%s", j.Text)
	}
}

func TestSubmitValidation(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"no workloads", RunSpec{}, "at least one workload"},
		{"unknown workload", RunSpec{Workloads: []string{"doom"}}, `unknown workload "doom"`},
		{"unknown prefetcher", RunSpec{Workloads: []string{"linpack"}, L2: "warp"}, "unknown prefetcher"},
		{"negative refs", RunSpec{Workloads: []string{"linpack"}, Refs: -5}, "non-negative"},
		{"huge refs", RunSpec{Workloads: []string{"linpack"}, Refs: maxRefs + 1}, "at most"},
		{"bad mtps", RunSpec{Workloads: []string{"linpack"}, DRAMMTps: 3200}, "dram_mtps"},
		{"bad pht", RunSpec{Workloads: []string{"linpack"}, SMSPHTEntries: 7}, "sms_pht_entries"},
		{"non-pow2 pht", RunSpec{Workloads: []string{"linpack"}, SMSPHTEntries: 48}, "sms_pht_entries"},
		{"non-pow2 llc", RunSpec{Workloads: []string{"linpack"}, LLCBytes: 100_000}, "llc_bytes"},
		{"tiny llc", RunSpec{Workloads: []string{"linpack"}, LLCBytes: 512}, "llc_bytes"},
		{"too many lanes", RunSpec{Workloads: []string{"linpack", "linpack", "linpack", "linpack", "linpack", "linpack", "linpack", "linpack", "linpack"}}, "at most"},
	}
	for _, tc := range cases {
		_, err := c.SubmitRun(ctx, tc.spec)
		var ae *APIError
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !asAPIError(err, &ae) || ae.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: err = %v, want 400", tc.name, err)
			continue
		}
		if !strings.Contains(ae.Message, tc.want) {
			t.Errorf("%s: message %q missing %q", tc.name, ae.Message, tc.want)
		}
	}

	if _, err := c.SubmitExperiment(ctx, "fig99", ScaleSpec{}); err == nil {
		t.Error("unknown experiment accepted")
	} else if ae := new(APIError); !asAPIError(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: err = %v, want 404", err)
	}
	if _, err := c.SubmitExperiment(ctx, "fig4", ScaleSpec{Refs: -1}); err == nil {
		t.Error("negative experiment refs accepted")
	}
	if _, err := c.Job(ctx, "j999999"); err == nil {
		t.Error("unknown job id accepted")
	}
}

func asAPIError(err error, target **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*target = ae
	}
	return ok
}

func TestUnknownFieldRejected(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	resp, err := http.Post(c.BaseURL+"/v1/runs", "application/json",
		strings.NewReader(`{"workloads":["linpack"],"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestCollectStatsSpecDecode pins the strict-decode contract around the
// collect_stats field: misspelled names and wrong JSON types are rejected
// with 400 instead of being silently dropped (a typo'd opt-in must not run a
// whole job without the telemetry the caller asked for), while both boolean
// spellings are accepted.
func TestCollectStatsSpecDecode(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"true accepted", `{"workloads":["linpack"],"collect_stats":true}`, http.StatusAccepted},
		{"false accepted", `{"workloads":["linpack"],"collect_stats":false}`, http.StatusAccepted},
		{"wrong type", `{"workloads":["linpack"],"collect_stats":"yes"}`, http.StatusBadRequest},
		{"wrong type int", `{"workloads":["linpack"],"collect_stats":1}`, http.StatusBadRequest},
		{"typo'd name", `{"workloads":["linpack"],"collectstats":true}`, http.StatusBadRequest},
		{"camel-case name", `{"workloads":["linpack"],"collectStats":true}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(c.BaseURL+"/v1/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// The same spec shape rides inside a campaign's base point; the strict
	// decoder must reach it there too.
	resp, err := http.Post(c.BaseURL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"base":{"workloads":["linpack"],"collect_stats":"yes"},"axes":{"l2":["none"]}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("campaign with mistyped collect_stats: status = %d, want 400", resp.StatusCode)
	}
}

// TestStatsOptInFlow exercises the telemetry path end to end: a run with
// collect_stats keeps its default result lean (no prefetchers section), the
// ?stats=1 view carries the full telemetry, /metrics exports it as labeled
// series, and a campaign over the identical point records the same numbers
// in its point record and summary.
func TestStatsOptInFlow(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 2, SimWorkers: 1})
	ctx := ctxT(t)

	spec := RunSpec{Workloads: []string{"tpcc"}, L2: "dspatch", Refs: 2_000, CollectStats: true}
	j, err := c.SubmitRun(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitRun: %v", err)
	}
	if _, err := c.Wait(ctx, j.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}

	lean, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if lean.Status != StatusDone {
		t.Fatalf("status = %q, want done (%s)", lean.Status, lean.Error)
	}
	if strings.Contains(string(lean.Result), `"Prefetchers"`) {
		t.Error("default job view leaks the Prefetchers section; it must be ?stats=1-only")
	}
	if stats, err := lean.PrefetcherStats(); err != nil || stats != nil {
		t.Errorf("lean view PrefetcherStats = %v, %v; want nil, nil", stats, err)
	}

	full, err := c.JobStats(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	runStats, err := full.PrefetcherStats()
	if err != nil {
		t.Fatalf("PrefetcherStats: %v", err)
	}
	dspatchCounters := findPrefCounters(runStats, "dspatch")
	if dspatchCounters == nil {
		t.Fatalf("?stats=1 view has no dspatch entry (models %v)", statNames(runStats))
	}
	if dspatchCounters["triggers"] == 0 {
		t.Error("dspatch trained zero times over 2000 tpcc refs")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m, `dspatchd_prefetcher_events_total{prefetcher="dspatch",counter="triggers"}`) {
		t.Error("/metrics is missing the dspatch triggers series")
	}
	if !strings.Contains(m, `dspatchd_prefetcher_hist_total{prefetcher="dspatch",hist="bw_quartile"`) {
		t.Error("/metrics is missing the dspatch bw_quartile histogram series")
	}

	// A single-point campaign over the identical spec must record the same
	// counters in its point record and summary aggregate.
	camp := sweep.Campaign{
		Base:       sweep.Point{Workloads: []string{"tpcc"}, Refs: 2_000, CollectStats: true},
		Axes:       sweep.Axes{L2: []string{"dspatch"}},
		BaselineL2: "dspatch",
	}
	cj, err := c.SubmitCampaign(ctx, camp)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if _, err := c.Wait(ctx, cj.ID); err != nil {
		t.Fatalf("Wait campaign: %v", err)
	}
	points, sum, err := c.CampaignPoints(ctx, cj.ID, 0)
	if err != nil {
		t.Fatalf("CampaignPoints: %v", err)
	}
	if len(points) != 1 || sum == nil {
		t.Fatalf("campaign stream: %d points, summary %v", len(points), sum != nil)
	}
	pointCounters := findPrefCounters(points[0].Prefetchers, "dspatch")
	sumCounters := findPrefCounters(sum.Prefetchers, "dspatch")
	if pointCounters == nil || sumCounters == nil {
		t.Fatalf("campaign records missing dspatch stats (point %v, summary %v)",
			pointCounters != nil, sumCounters != nil)
	}
	for _, counters := range []map[string]uint64{pointCounters, sumCounters} {
		for k, v := range dspatchCounters {
			if counters[k] != v {
				t.Errorf("campaign counter %s = %d, run reported %d", k, counters[k], v)
			}
		}
	}

	// The campaign's ?stats=1 job view serves the summary aggregate too.
	cFull, err := c.JobStats(ctx, cj.ID)
	if err != nil {
		t.Fatal(err)
	}
	campStats, err := cFull.PrefetcherStats()
	if err != nil {
		t.Fatalf("campaign PrefetcherStats: %v", err)
	}
	if got := findPrefCounters(campStats, "dspatch"); got == nil || got["triggers"] != dspatchCounters["triggers"] {
		t.Errorf("campaign ?stats=1 triggers = %v, want %d", got, dspatchCounters["triggers"])
	}
}

// findPrefCounters returns the named model's counter map, nil if absent.
func findPrefCounters(stats []sim.PrefetcherStats, name string) map[string]uint64 {
	for _, st := range stats {
		if st.Name == name {
			return st.Counters
		}
	}
	return nil
}

func statNames(stats []sim.PrefetcherStats) []string {
	names := make([]string, len(stats))
	for i, st := range stats {
		names[i] = st.Name
	}
	return names
}

func TestCancelRunningJob(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: maxRefs})
	if err != nil {
		t.Fatalf("SubmitRun: %v", err)
	}
	// Let it start, then cancel mid-simulation.
	if st := waitDequeued(t, c, j.ID); st != StatusRunning {
		t.Fatalf("%d-ref job finished before cancel: %q", maxRefs, st)
	}
	if _, err := c.Cancel(ctx, j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	v, err := c.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if v.Status != StatusCanceled {
		t.Fatalf("status = %q, want canceled", v.Status)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, QueueDepth: 8})
	ctx := ctxT(t)
	blocker, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: maxRefs})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"tpcc"}, Refs: maxRefs})
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.Cancel(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCanceled {
		t.Fatalf("queued job cancel: status = %q", v.Status)
	}
	if _, err := c.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Wait(ctx, blocker.ID); err != nil || v.Status != StatusCanceled {
		t.Fatalf("blocker: %v %q", err, v.Status)
	}
}

func TestQueueFullRejects(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, QueueDepth: 1})
	ctx := ctxT(t)
	// Same spec: everything hashes to the one worker's queue of depth 1.
	spec := func(name string) RunSpec {
		return RunSpec{Workloads: []string{name}, Refs: maxRefs}
	}
	blocker, err := c.SubmitRun(ctx, spec("linpack"))
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	var rejected bool
	for i := 0; i < 3; i++ {
		j, err := c.SubmitRun(ctx, spec("tpcc"))
		if err != nil {
			var ae *APIError
			if asAPIError(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable {
				rejected = true
				break
			}
			t.Fatalf("unexpected submit error: %v", err)
		}
		ids = append(ids, j.ID)
	}
	if !rejected {
		t.Error("queue never filled: no 503")
	}
	for _, id := range append(ids, blocker.ID) {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestListJobs(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	j1, err := c.SubmitExperiment(ctx, "table1", ScaleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.SubmitExperiment(ctx, "table3", ScaleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, j2.ID); err != nil {
		t.Fatal(err)
	}
	list, err := c.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) < 2 {
		t.Fatalf("list has %d jobs", len(list))
	}
	var seen1, seen2 bool
	for _, v := range list {
		seen1 = seen1 || v.ID == j1.ID
		seen2 = seen2 || v.ID == j2.ID
		if len(v.Result) != 0 {
			t.Errorf("list leaked a result for %s", v.ID)
		}
	}
	if !seen1 || !seen2 {
		t.Errorf("list missing submitted jobs: %v %v", seen1, seen2)
	}
}

// TestJobTableEvictsOldestTerminal runs a three-job table past its cap. The
// listing keeps the newest jobs in submission order, evicted IDs answer 404,
// a running or queued job is never evicted, and once every record is an
// active job a new submission answers 503.
func TestJobTableEvictsOldestTerminal(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 2, SimWorkers: 1, MaxJobs: 3})
	ctx := ctxT(t)
	quick := func() string {
		t.Helper()
		j, err := c.SubmitExperiment(ctx, "table1", ScaleSpec{})
		if err != nil {
			t.Fatalf("SubmitExperiment: %v", err)
		}
		if v, err := c.Wait(ctx, j.ID); err != nil || v.Status != StatusDone {
			t.Fatalf("job %s: %v, status %q", j.ID, err, v.Status)
		}
		return j.ID
	}
	long := func(name string) string {
		t.Helper()
		j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{name}, Refs: maxRefs})
		if err != nil {
			t.Fatalf("SubmitRun: %v", err)
		}
		return j.ID
	}
	listed := func(want ...string) {
		t.Helper()
		list, err := c.Jobs(ctx)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(list))
		for i, v := range list {
			got[i] = v.ID
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GET /v1/jobs lists %v, want %v", got, want)
		}
	}
	gone := func(ids ...string) {
		t.Helper()
		for _, id := range ids {
			var ae *APIError
			if _, err := c.Job(ctx, id); !asAPIError(err, &ae) || ae.StatusCode != http.StatusNotFound {
				t.Fatalf("evicted job %s: got %v, want 404", id, err)
			}
		}
	}

	var done []string
	for i := 0; i < 5; i++ {
		done = append(done, quick())
	}
	listed(done[2:]...)
	gone(done[:2]...)

	running := long("linpack")
	if st := waitDequeued(t, c, running); st != StatusRunning {
		t.Fatalf("%d-ref job is %q, want running", maxRefs, st)
	}
	t6, t7, t8 := quick(), quick(), quick()
	listed(running, t7, t8) // t6 went although the running job is older
	gone(t6)

	active := []string{running, long("tpcc"), long("mcf")}
	listed(active...)
	_, err := c.SubmitExperiment(ctx, "table1", ScaleSpec{})
	var ae *APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable || !strings.Contains(ae.Message, "job table full") {
		t.Fatalf("submit to a table of active jobs: got %v, want 503 job table full", err)
	}
	listed(active...)
	for _, id := range active {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Wait(ctx, id); err != nil || !v.Status.Terminal() {
			t.Fatalf("job %s: %v, status %q", id, err, v.Status)
		}
	}
}

func TestRosterEndpoints(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	ws, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 83 {
		t.Errorf("roster has %d workloads, want 83", len(ws))
	}
	es, err := c.Experiments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != len(experiments.Experiments()) {
		t.Errorf("experiment list has %d entries, want %d", len(es), len(experiments.Experiments()))
	}
	var pfs []string
	if err := c.do(ctx, http.MethodGet, "/v1/prefetchers", nil, &pfs); err != nil {
		t.Fatal(err)
	}
	if len(pfs) == 0 || pfs[0] != "none" {
		t.Errorf("prefetcher roster: %v", pfs)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: 700})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dspatchd_jobs_submitted_total",
		"dspatchd_jobs_completed_total",
		"dspatchd_engine_sims_total",
		"dspatchd_engine_memo_hits_total",
		"dspatchd_engine_disk_cache_hits_total",
		"dspatchd_engine_refs_per_second",
		"dspatchd_jobs_queued",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}

// TestQueueWaitHistogram: dspatchd_job_queue_wait_seconds observes every
// started job, and its cumulative _bucket series, _sum and _count only grow.
func TestQueueWaitHistogram(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	const name = "dspatchd_job_queue_wait_seconds"
	var scrapes [][]float64 // per scrape: every bucket in order, then _sum, then _count
	for _, refs := range []int{701, 703} {
		j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: refs})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var vals []float64
		for _, line := range strings.Split(text, "\n") {
			series, v, ok := strings.Cut(line, " ")
			if !ok || !strings.HasPrefix(series, name+"_") {
				continue
			}
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			if strings.HasPrefix(series, name+"_bucket") && len(vals) > 0 && f < vals[len(vals)-1] {
				t.Errorf("scrape %d: %s below the previous bucket", len(scrapes), line)
			}
			vals = append(vals, f)
		}
		if len(vals) != 13+1+2 {
			t.Fatalf("scrape %d: %d %s series, want 13 buckets, +Inf, _sum and _count:\n%s", len(scrapes), len(vals), name, text)
		}
		if n := vals[len(vals)-1]; n != float64(len(scrapes)+1) || vals[len(vals)-3] != n {
			t.Errorf("scrape %d: +Inf bucket %g, _count %g, want %d jobs", len(scrapes), vals[len(vals)-3], n, len(scrapes)+1)
		}
		scrapes = append(scrapes, vals)
	}
	for i, v := range scrapes[1] {
		if v < scrapes[0][i] {
			t.Errorf("%s series %d fell from %g to %g", name, i, scrapes[0][i], v)
		}
	}
}

// metricValue reads one unlabeled sample from a Prometheus text exposition.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	t.Fatalf("metrics missing %s", name)
	return ""
}

// TestPollutionRunResubmissionIsMemoized: a track_pollution run is an
// ordinary memoized run, so resubmitting it simulates nothing —
// dspatchd_engine_sims_total stays flat — and returns the same bytes.
func TestPollutionRunResubmissionIsMemoized(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)
	spec := RunSpec{Workloads: []string{"mcf"}, Refs: 10_000, L2: "streamer", Seed: 17, TrackPollution: true}
	submit := func() (JobView, string) {
		j, err := c.SubmitRun(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		if j.Status != StatusDone {
			t.Fatalf("pollution run: %q (%s)", j.Status, j.Error)
		}
		text, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return j, metricValue(t, text, "dspatchd_engine_sims_total")
	}
	first, simsFirst := submit()
	second, simsSecond := submit()
	if simsSecond != simsFirst {
		t.Errorf("resubmitted pollution run moved dspatchd_engine_sims_total %s -> %s", simsFirst, simsSecond)
	}
	if string(first.Result) != string(second.Result) {
		t.Errorf("resubmitted pollution run differs:\n%s\n%s", first.Result, second.Result)
	}
	if !strings.Contains(string(first.Result), `"Pollution":[0.`) {
		t.Errorf("pollution run result carries no pollution fractions: %s", first.Result)
	}
}

func TestDrainStopsIntakeAndFinishesJobs(t *testing.T) {
	s, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	waitDequeued(t, c, j.ID)
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(drainCtx)

	if _, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"tpcc"}}); err == nil {
		t.Error("submission accepted while draining")
	} else if ae := new(APIError); asAPIError(err, &ae) && ae.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit status = %d, want 503", ae.StatusCode)
	}
	v, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusDone {
		t.Errorf("in-flight job after drain = %q, want done (50k refs fits the drain window)", v.Status)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status = %q, want draining", h.Status)
	}
}

func TestDrainTimeoutCancelsStragglers(t *testing.T) {
	s, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: maxRefs})
	if err != nil {
		t.Fatal(err)
	}
	waitDequeued(t, c, j.ID)
	drainCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	s.Drain(drainCtx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain hung for %v", elapsed)
	}
	v, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusCanceled {
		t.Errorf("straggler = %q, want canceled", v.Status)
	}
}

func TestLongPollReturnsOnCompletion(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var v JobView
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+j.ID+"?wait=45s", nil, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Status.Terminal() {
		t.Fatalf("long-poll returned non-terminal %q", v.Status)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("long-poll blocked %v despite completion", elapsed)
	}
}
