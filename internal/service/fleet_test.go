package service

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/service/chaos"
	"dspatch/internal/sim"
	"dspatch/internal/sweep"
)

// Fleet acceptance tests: a coordinator over in-process worker daemons,
// exercised through the chaos fault-injection layer. The workers share this
// process's experiment engine (memo included), which keeps the tests fast;
// what these tests prove is the coordination fabric — dispatch, leases,
// retry, ejection, drop accounting, and stream byte-identity — which is
// exactly the part in-process sharing cannot fake. The CI chaos-smoke job
// repeats the headline scenario with real separate daemon processes.

// newWorkerFleet starts n worker daemons behind chaos injectors labeled
// "w0".."w<n-1>" and returns their URLs.
func newWorkerFleet(t *testing.T, n int, sched *chaos.Schedule) []string {
	t.Helper()
	if sched == nil {
		sched = &chaos.Schedule{}
	}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := New(Config{JobWorkers: 1, SimWorkers: 1})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		label := []string{"w0", "w1", "w2", "w3"}[i]
		hs := httptest.NewServer(chaos.NewInjector(sched, label, s.Handler()))
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Drain(ctx)
			hs.Close()
		})
		urls[i] = hs.URL
	}
	return urls
}

// fleetTestConfig is a FleetConfig scaled for test wall-clock: short
// leases, fast probes, quick ejection.
func fleetTestConfig(urls []string) *FleetConfig {
	return &FleetConfig{
		Workers:       urls,
		LeaseTTL:      700 * time.Millisecond,
		MaxAttempts:   4,
		MaxInflight:   2,
		ProbeInterval: 50 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  300 * time.Millisecond,
		NoWorkerGrace: 2 * time.Second,
		DispatchSeed:  1,
	}
}

// stripFleetTelemetry removes every non-deterministic summary field — the
// local run's engine/elapsed telemetry plus the fleet block — leaving only
// spec-determined content.
func stripFleetTelemetry(t *testing.T, line string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("summary: %v", err)
	}
	delete(m, "engine")
	delete(m, "elapsed_ms")
	delete(m, "fleet")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// localReference runs the campaign on the local engine and returns its
// NDJSON lines.
func localReference(t *testing.T, c sweep.Campaign) []string {
	t.Helper()
	var lines []string
	eng := sweep.Engine{Workers: 2}
	if _, err := eng.Run(context.Background(), c, func(line json.RawMessage) error {
		lines = append(lines, string(line))
		return nil
	}); err != nil {
		t.Fatalf("local run: %v", err)
	}
	return lines
}

// pointRunKey computes the canonical store key of one campaign point.
func pointRunKey(t *testing.T, p sweep.Point) string {
	t.Helper()
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	return experiments.JobID(p.Job()).String()
}

// TestFleetCampaignChaosByteIdentical is the acceptance scenario from the
// issue: a 3-worker fleet where one worker dies mid-campaign, one dispatch
// hangs until its lease expires, and the shared store holds one torn entry —
// and the resulting NDJSON stream is still byte-identical to a single-node
// run, with zero points lost.
func TestFleetCampaignChaosByteIdentical(t *testing.T) {
	spec := tinyCampaign(673) // distinctive refs: runs unique to this test
	want := localReference(t, spec)

	// Shared result store: one pre-seeded valid entry (a store hit), one
	// torn entry (must read as a miss and be re-simulated).
	storeDir := t.TempDir()
	ds, err := experiments.NewDirStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	validPt := sweep.Point{Workloads: []string{"mcf"}, Refs: 673, L2: "none"}
	validKey := pointRunKey(t, validPt)
	{
		p := validPt
		if err := p.Normalize(); err != nil {
			t.Fatal(err)
		}
		res, err := experiments.RunJobs(context.Background(), []experiments.Job{p.Job()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Put(validKey, res[0]); err != nil {
			t.Fatal(err)
		}
	}
	tornKey := pointRunKey(t, sweep.Point{Workloads: []string{"tpcc"}, Refs: 673, L2: "spp"})
	// A crash mid-write leaves a prefix of a real entry.
	if err := ds.Put(tornKey, sim.Result{IPC: []float64{1}, Cycles: 1}); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(ds.PathOf(tornKey))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.PutRaw(tornKey, whole[:len(whole)/2]); err != nil {
		t.Fatal(err)
	}

	// Fault schedule: w1 drops dead on its first dispatch; w2 hangs its
	// first dispatch until the lease expires.
	sched := &chaos.Schedule{Faults: []chaos.Fault{
		{Worker: "w1", Kind: chaos.KindKill, At: 1},
		{Worker: "w2", Kind: chaos.KindTimeout, At: 1},
	}}
	urls := newWorkerFleet(t, 3, sched)
	s, c := newTestServer(t, Config{JobWorkers: 1, StoreDir: storeDir, Fleet: fleetTestConfig(urls)})
	ctx := ctxT(t)

	j, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	j, err = c.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status != StatusDone {
		t.Fatalf("status = %q (error %q)", j.Status, j.Error)
	}
	recs, err := c.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatalf("CampaignRecords: %v", err)
	}

	// Byte-identity against the single-node stream.
	if len(recs) != len(want) {
		t.Fatalf("fleet emitted %d records, local %d", len(recs), len(want))
	}
	for k := range want {
		a, b := want[k], string(recs[k])
		if k == len(want)-1 {
			a, b = stripFleetTelemetry(t, a), stripFleetTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs:\nlocal: %s\nfleet: %s", k, a, b)
		}
	}

	// Zero points lost, and the failure weather is accounted for.
	var sum sweep.Summary
	if err := json.Unmarshal(recs[len(recs)-1], &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.DroppedPoints) != 0 {
		t.Fatalf("dropped points on a recoverable-fault run: %+v", sum.DroppedPoints)
	}
	if sum.Fleet == nil {
		t.Fatal("summary missing fleet telemetry")
	}
	if sum.Fleet.Workers != 3 || sum.Fleet.StoreHits != 1 {
		t.Errorf("fleet telemetry = %+v, want 3 workers / 1 store hit", sum.Fleet)
	}
	if sum.Fleet.LeasesExpired < 1 {
		t.Errorf("leases expired = %d, want >= 1 (timeout fault)", sum.Fleet.LeasesExpired)
	}
	if sum.Fleet.Redispatches < 2 {
		t.Errorf("redispatches = %d, want >= 2 (kill + lease expiry)", sum.Fleet.Redispatches)
	}
	if got := s.pointsRedispatched.Load(); got < 2 {
		t.Errorf("dspatchd_points_redispatched_total = %d, want >= 2", got)
	}
	if got := s.leasesExpired.Load(); got < 1 {
		t.Errorf("dspatchd_leases_expired_total = %d, want >= 1", got)
	}
	if got := s.workersEjected.Load(); got < 1 {
		t.Errorf("dspatchd_workers_ejected_total = %d, want >= 1 (killed worker)", got)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{
		"dspatchd_points_redispatched_total",
		"dspatchd_workers_ejected_total",
		"dspatchd_leases_expired_total",
	} {
		if !strings.Contains(metrics, row) {
			t.Errorf("/metrics missing %s", row)
		}
	}

	// The torn entry was re-simulated and rewritten valid.
	if _, ok := ds.Get(tornKey); !ok {
		t.Error("torn store entry was not repaired by the fleet run")
	}
}

// TestFleetDropsPointsWithReasonsInsteadOfWedging starves the campaign: the
// only worker sheds every dispatch. Every point must be dropped with a
// recorded reason — the campaign completes (status done, summary emitted)
// rather than wedging or silently losing work.
func TestFleetDropsPointsWithReasonsInsteadOfWedging(t *testing.T) {
	sched := &chaos.Schedule{Faults: []chaos.Fault{
		{Worker: "w0", Kind: chaos.KindShed, At: 1, Count: 100000},
	}}
	urls := newWorkerFleet(t, 1, sched)
	fc := fleetTestConfig(urls)
	fc.MaxAttempts = 2
	_, c := newTestServer(t, Config{JobWorkers: 1, Fleet: fc})
	ctx := ctxT(t)

	spec := tinyCampaign(677)
	j, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	j, err = c.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.Status != StatusDone {
		t.Fatalf("status = %q (error %q) — an all-shed fleet must still complete", j.Status, j.Error)
	}
	recs, err := c.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Header + summary only: every point was dropped.
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (header + summary):\n%s", len(recs), recs)
	}
	var sum sweep.Summary
	if err := json.Unmarshal(recs[1], &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.DroppedPoints) != 4 {
		t.Fatalf("dropped points = %d, want all 4: %+v", len(sum.DroppedPoints), sum.DroppedPoints)
	}
	for _, dp := range sum.DroppedPoints {
		if !strings.Contains(dp.Reason, "max attempts (2) exhausted") ||
			!strings.Contains(dp.Reason, "shed") {
			t.Errorf("dropped point %d reason = %q, want max-attempts + shed", dp.Index, dp.Reason)
		}
	}
	if sum.Fleet == nil || sum.Fleet.ShedRejections == 0 {
		t.Errorf("fleet telemetry = %+v, want shed rejections > 0", sum.Fleet)
	}
	// Indexes are sorted and unique.
	for i := 1; i < len(sum.DroppedPoints); i++ {
		if sum.DroppedPoints[i].Index <= sum.DroppedPoints[i-1].Index {
			t.Errorf("dropped points not in index order: %+v", sum.DroppedPoints)
		}
	}
}

// TestFleetStoreResumeSkipsDispatch re-submits a finished fleet campaign:
// with every run already in the shared store, the second pass must complete
// with zero dispatches.
func TestFleetStoreResumeSkipsDispatch(t *testing.T) {
	storeDir := t.TempDir()
	urls := newWorkerFleet(t, 2, nil)
	_, c := newTestServer(t, Config{JobWorkers: 1, StoreDir: storeDir, Fleet: fleetTestConfig(urls)})
	ctx := ctxT(t)
	spec := tinyCampaign(683)

	run := func() sweep.Summary {
		j, err := c.SubmitCampaign(ctx, spec)
		if err != nil {
			t.Fatalf("SubmitCampaign: %v", err)
		}
		j, err = c.Wait(ctx, j.ID)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if j.Status != StatusDone {
			t.Fatalf("status = %q (error %q)", j.Status, j.Error)
		}
		var sum sweep.Summary
		if err := json.Unmarshal(j.Result, &sum); err != nil {
			t.Fatal(err)
		}
		return sum
	}
	first := run()
	if first.Fleet.Dispatches == 0 {
		t.Fatalf("first pass dispatched nothing: %+v", first.Fleet)
	}
	second := run()
	if second.Fleet.Dispatches != 0 || second.Fleet.StoreHits == 0 {
		t.Errorf("resume pass = %+v, want 0 dispatches and all store hits", second.Fleet)
	}
}
