package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dspatch/internal/sweep"
)

// Durability acceptance tests: crash-recoverable campaigns, admission
// control, and health-gated membership. The crash here is a panic sentinel
// standing in for SIGKILL — it rips control out of the campaign mid-emit
// exactly where a real kill would land, while letting the test keep running
// to start the next incarnation. The CI crash-resume smoke job repeats the
// scenario with a real process and a real SIGKILL.

type crashSentinel struct{}

// crashingConfig arms cfg to "crash" (panic) after n emitted campaign
// points, reporting the panic through the returned channel.
func crashingConfig(cfg Config, n int) (Config, chan struct{}) {
	crashed := make(chan struct{})
	cfg.CrashAfterPoints = n
	cfg.CrashFn = func() {
		close(crashed)
		panic(crashSentinel{})
	}
	return cfg, crashed
}

func journalsIn(t *testing.T, storeDir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(storeDir, "journals", "*.journal"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestFleetCoordinatorCrashResume is the issue's acceptance scenario: a
// 3-worker fleet coordinator is crash-killed mid-campaign (after the second
// emitted point), a fresh coordinator on the same store dir resurrects the
// campaign under its original job ID, and the final stream is byte-identical
// to a single-node run with zero dropped points. Journaled completions and
// stored results replay without dispatches — only the unfinished tail hits
// the fleet again.
func TestFleetCoordinatorCrashResume(t *testing.T) {
	spec := tinyCampaign(709) // distinctive refs: runs unique to this test
	want := localReference(t, spec)
	storeDir := t.TempDir()
	urls := newWorkerFleet(t, 3, nil)
	ctx := ctxT(t)

	// Incarnation one: crash after the second emitted point.
	cfg1, crashed := crashingConfig(Config{JobWorkers: 1, Fleet: fleetTestConfig(urls, storeDir)}, 2)
	_, c1 := newTestServer(t, cfg1)
	j, err := c1.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	select {
	case <-crashed:
	case <-ctx.Done():
		t.Fatal("campaign never reached the crash point")
	}
	jv, err := c1.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait on crashed incarnation: %v", err)
	}
	if jv.Status != StatusFailed {
		t.Fatalf("crashed campaign status = %q, want failed", jv.Status)
	}
	if got := journalsIn(t, storeDir); len(got) != 1 {
		t.Fatalf("journals after crash = %v, want the unsealed campaign journal", got)
	}

	// Incarnation two: same store dir, no crash. Startup must resurrect the
	// campaign under its original ID.
	s2, c2 := newTestServer(t, Config{JobWorkers: 1, Fleet: fleetTestConfig(urls, storeDir)})
	if got := s2.campaignsResumed.Load(); got != 1 {
		t.Fatalf("campaigns resumed = %d, want 1", got)
	}
	jv, err = c2.Wait(ctx, j.ID)
	if err != nil {
		t.Fatalf("Wait on resumed campaign %s: %v", j.ID, err)
	}
	if jv.Status != StatusDone {
		t.Fatalf("resumed campaign status = %q (error %q)", jv.Status, jv.Error)
	}

	recs, err := c2.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatalf("CampaignRecords: %v", err)
	}
	if len(recs) != len(want) {
		t.Fatalf("resumed stream has %d records, local %d:\n%s", len(recs), len(want), recs)
	}
	for k := range want {
		a, b := want[k], string(recs[k])
		if k == len(want)-1 {
			a, b = stripFleetTelemetry(t, a), stripFleetTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs after crash-resume:\nlocal:   %s\nresumed: %s", k, a, b)
		}
	}
	var sum sweep.Summary
	if err := json.Unmarshal(recs[len(recs)-1], &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.DroppedPoints) != 0 {
		t.Fatalf("resumed campaign dropped points: %+v", sum.DroppedPoints)
	}
	// The campaign deduplicates to 4 runs. At least one point (and its runs)
	// was durable before the crash, so the resumed pass must dispatch
	// strictly less than the whole campaign — replayed completions cost zero
	// dispatches, store hits cover the rest of the finished prefix.
	if sum.Fleet == nil || sum.Fleet.Dispatches >= 4 {
		t.Errorf("resumed fleet telemetry = %+v, want < 4 dispatches", sum.Fleet)
	}
	// Success seals and reaps the journal.
	if got := journalsIn(t, storeDir); len(got) != 0 {
		t.Errorf("journals after successful resume = %v, want none", got)
	}
	h, err := c2.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.ActiveCampaigns != 0 {
		t.Errorf("active campaigns after completion = %d", h.ActiveCampaigns)
	}
	metrics, err := c2.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "dspatchd_campaigns_resumed_total 1") {
		t.Errorf("/metrics missing resumed counter:\n%s", metrics)
	}
}

// TestLocalCrashResume is the single-node variant: no fleet, just the local
// engine journaling into -store-dir. Same contract — restart resumes the
// campaign under its original ID with a byte-identical stream.
func TestLocalCrashResume(t *testing.T) {
	spec := tinyCampaign(719)
	storeDir := t.TempDir()
	ctx := ctxT(t)

	var want []string
	{
		_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 2})
		j, err := c.SubmitCampaign(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
			t.Fatalf("reference run: %v status %q", err, j.Status)
		}
		recs, err := c.CampaignRecords(ctx, j.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			want = append(want, string(r))
		}
	}

	cfg1, crashed := crashingConfig(Config{JobWorkers: 1, SimWorkers: 2, StoreDir: storeDir}, 2)
	_, c1 := newTestServer(t, cfg1)
	j, err := c1.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-crashed:
	case <-ctx.Done():
		t.Fatal("campaign never reached the crash point")
	}
	if jv, err := c1.Wait(ctx, j.ID); err != nil || jv.Status != StatusFailed {
		t.Fatalf("crashed incarnation: %v status %q", err, jv.Status)
	}

	s2, c2 := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 2, StoreDir: storeDir})
	if got := s2.campaignsResumed.Load(); got != 1 {
		t.Fatalf("campaigns resumed = %d, want 1", got)
	}
	jv, err := c2.Wait(ctx, j.ID)
	if err != nil || jv.Status != StatusDone {
		t.Fatalf("resumed campaign: %v status %q (error %q)", err, jv.Status, jv.Error)
	}
	recs, err := c2.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("resumed stream has %d records, want %d", len(recs), len(want))
	}
	for k := range want {
		a, b := want[k], string(recs[k])
		if k == len(want)-1 {
			a, b = stripFleetTelemetry(t, a), stripFleetTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs after crash-resume:\nwant %s\ngot  %s", k, a, b)
		}
	}
}

// TestPackStoreBackendServesCampaigns wires the pack backend through the
// daemon: a crash-resume round trip entirely on -store pack.
func TestPackStoreBackendServesCampaigns(t *testing.T) {
	spec := tinyCampaign(727)
	storeDir := t.TempDir()
	ctx := ctxT(t)

	cfg1, crashed := crashingConfig(Config{JobWorkers: 1, SimWorkers: 2, StoreDir: storeDir, StoreBackend: "pack"}, 2)
	_, c1 := newTestServer(t, cfg1)
	j, err := c1.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-crashed
	if jv, err := c1.Wait(ctx, j.ID); err != nil || jv.Status != StatusFailed {
		t.Fatalf("crashed incarnation: %v status %q", err, jv.Status)
	}
	if _, err := os.Stat(filepath.Join(storeDir, "results.pack")); err != nil {
		t.Fatalf("pack file missing: %v", err)
	}

	s2, c2 := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 2, StoreDir: storeDir, StoreBackend: "pack"})
	if got := s2.campaignsResumed.Load(); got != 1 {
		t.Fatalf("campaigns resumed = %d, want 1", got)
	}
	jv, err := c2.Wait(ctx, j.ID)
	if err != nil || jv.Status != StatusDone {
		t.Fatalf("resumed campaign on pack store: %v status %q (error %q)", err, jv.Status, jv.Error)
	}
}

// TestQuotaShedsPerClient exhausts one client's token bucket and proves the
// 503 + Retry-After contract, per-client isolation, and the metrics trail.
func TestQuotaShedsPerClient(t *testing.T) {
	s, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, QuotaRate: 0.01, QuotaBurst: 2})
	ctx := ctxT(t)
	c.ClientID = "alice"
	spec := RunSpec{Workloads: []string{"linpack"}, Refs: 733}

	for i := 0; i < 2; i++ {
		if _, err := c.SubmitRun(ctx, spec); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	_, err := c.SubmitRun(ctx, spec)
	var ae *APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-burst submit: %v, want 503", err)
	}
	if !strings.Contains(ae.Message, "quota") {
		t.Errorf("shed message = %q, want a quota explanation", ae.Message)
	}
	if ae.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", ae.RetryAfter)
	}

	// A different client has its own bucket.
	c2 := NewClient(c.BaseURL)
	c2.ClientID = "bob"
	if _, err := c2.SubmitRun(ctx, spec); err != nil {
		t.Fatalf("second client blocked by first client's quota: %v", err)
	}
	// The anonymous crowd shares one bucket.
	anon := NewClient(c.BaseURL)
	if _, err := anon.SubmitRun(ctx, spec); err != nil {
		t.Fatalf("anonymous submit within burst: %v", err)
	}
	if _, err := anon.SubmitRun(ctx, spec); err != nil {
		t.Fatalf("anonymous submit within burst: %v", err)
	}
	if _, err := anon.SubmitRun(ctx, spec); err == nil {
		t.Fatal("anonymous bucket never exhausted")
	}
	if got := s.quotaRejected.Load(); got < 2 {
		t.Errorf("quota rejections = %d, want >= 2", got)
	}
	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "dspatchd_quota_rejections_total") {
		t.Error("/metrics missing dspatchd_quota_rejections_total")
	}
}

// TestCampaignWatermarkSheds fills the daemon to its campaign high watermark
// and proves hysteresis: new campaigns shed at the high mark and stay shed
// until the active count reaches the low mark.
func TestCampaignWatermarkSheds(t *testing.T) {
	s, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, CampaignHighWater: 2, CampaignLowWater: 1})
	ctx := ctxT(t)

	// Two long campaigns: one runs, one queues — both count as active.
	long := tinyCampaign(maxRefs)
	j1, err := c.SubmitCampaign(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := c.SubmitCampaign(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitCampaign(ctx, tinyCampaign(739))
	var ae *APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit at high watermark: %v, want 503", err)
	}
	if !strings.Contains(ae.Message, "watermark") {
		t.Errorf("shed message = %q", ae.Message)
	}
	// Runs are not campaigns: the watermark must not touch them.
	if _, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: 739}); err != nil {
		t.Fatalf("plain run shed by campaign watermark: %v", err)
	}

	// Cancel one campaign: active drops to 1 == low water, admission reopens.
	if _, err := c.Cancel(ctx, j1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, j1.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for int(s.activeCampaigns.Load()) > 1 {
		if time.Now().After(deadline) {
			t.Fatalf("active campaigns stuck at %d", s.activeCampaigns.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	j3, err := c.SubmitCampaign(ctx, tinyCampaign(743))
	if err != nil {
		t.Fatalf("submit after falling to low watermark: %v", err)
	}
	for _, id := range []string{j2.ID, j3.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.campaignsShed.Load(); got != 1 {
		t.Errorf("campaigns shed = %d, want 1", got)
	}
}

// TestRunningCampaignNeverEvicted pins the -max-campaign-streams contract:
// the retention cap counts terminal campaigns only, so a stream of finished
// campaigns can never evict an active one's records.
func TestRunningCampaignNeverEvicted(t *testing.T) {
	s, c := newTestServer(t, Config{JobWorkers: 2, SimWorkers: 1, MaxCampaignStreams: 1})
	ctx := ctxT(t)

	// A long-running campaign on one shard...
	longSpec := tinyCampaign(maxRefs)
	long, err := c.SubmitCampaign(ctx, longSpec)
	if err != nil {
		t.Fatal(err)
	}
	// ...while finished campaigns churn through the retention window on the
	// OTHER shard (same shardKey the daemon routes with — a churn campaign
	// sharing the long one's shard would queue behind it instead of
	// finishing first). Two terminal campaigns with cap 1 force an eviction.
	longShard := shardKey(kindCampaign, &longSpec, 2)
	var churn []int
	for refs := 751; len(churn) < 2; refs += 2 {
		spec := tinyCampaign(refs)
		if shardKey(kindCampaign, &spec, 2) != longShard {
			churn = append(churn, refs)
		}
	}
	var done []JobView
	for _, refs := range churn {
		j, err := c.SubmitCampaign(ctx, tinyCampaign(refs))
		if err != nil {
			t.Fatal(err)
		}
		if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
			t.Fatalf("churn campaign: %v status %q", err, j.Status)
		}
		done = append(done, j)
	}

	// The active campaign's stream must still be intact.
	jv, err := c.Job(ctx, long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if jv.Status != StatusQueued && jv.Status != StatusRunning {
		t.Fatalf("long campaign unexpectedly terminal: %q", jv.Status)
	}
	if _, err := c.CampaignRecords(ctx, long.ID, 0); err != nil {
		t.Fatalf("active campaign stream evicted: %v", err)
	}
	// The oldest finished campaign is the one that paid for the cap.
	if _, err := c.CampaignRecords(ctx, done[0].ID, 0); err == nil {
		t.Fatal("oldest finished campaign kept its stream past the cap")
	}
	if _, err := c.Cancel(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, long.ID); err != nil {
		t.Fatal(err)
	}
	_ = s
}

// TestClientCampaignEvictedError proves the typed 410 contract: the client
// surfaces *CampaignEvictedError carrying the summary retained on the job.
// A campaign's terminal status is published only after its retirement has
// evicted the older stream, so the 410 must hold on every iteration, not
// just most of them.
func TestClientCampaignEvictedError(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1, MaxCampaignStreams: 1})
		ctx := ctxT(t)

		var ids []string
		for _, refs := range []int{761, 769} {
			j, err := c.SubmitCampaign(ctx, tinyCampaign(refs))
			if err != nil {
				t.Fatal(err)
			}
			if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
				t.Fatalf("iteration %d: campaign: %v status %q", iter, err, j.Status)
			}
			ids = append(ids, j.ID)
		}

		_, err := c.CampaignStream(ctx, ids[0], 0)
		var ev *CampaignEvictedError
		if !errors.As(err, &ev) {
			t.Fatalf("iteration %d: evicted stream error = %v (%T), want *CampaignEvictedError", iter, err, err)
		}
		if ev.ID != ids[0] {
			t.Errorf("iteration %d: evicted ID = %q, want %q", iter, ev.ID, ids[0])
		}
		var sum sweep.Summary
		if err := json.Unmarshal(ev.Summary, &sum); err != nil || sum.Points != 4 {
			t.Errorf("iteration %d: retained summary = %s (%v), want the campaign summary", iter, ev.Summary, err)
		}
		if !strings.Contains(ev.Error(), ids[0]) {
			t.Errorf("iteration %d: Error() = %q", iter, ev.Error())
		}
	}
}

// TestWorkersFileFleetCampaign runs a fleet campaign with the roster coming
// entirely from a workers file: joiners start pending and are admitted by
// the initial probe, and the stream stays byte-identical.
func TestWorkersFileFleetCampaign(t *testing.T) {
	spec := tinyCampaign(773)
	want := localReference(t, spec)
	urls := newWorkerFleet(t, 3, nil)
	roster := filepath.Join(t.TempDir(), "workers.txt")
	content := "# test fleet\n" + strings.Join(urls, "\n") + "\n"
	if err := os.WriteFile(roster, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	fc := fleetTestConfig(nil, "")
	fc.WorkersFile = roster
	fc.WorkersReload = 50 * time.Millisecond
	_, c := newTestServer(t, Config{JobWorkers: 1, Fleet: fc})
	ctx := ctxT(t)

	j, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("workers-file campaign: %v status %q (error %q)", err, j.Status, j.Error)
	}
	recs, err := c.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("stream has %d records, local %d", len(recs), len(want))
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
	var sum sweep.Summary
	if err := json.Unmarshal(recs[len(recs)-1], &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Fleet == nil || sum.Fleet.Workers != 3 {
		t.Errorf("fleet telemetry = %+v, want 3 file-admitted workers", sum.Fleet)
	}
}

// TestPoolMembershipReconcile unit-tests the roster reconciliation rules:
// joiners are pending until probed, removals drain in-flight leases, and
// re-listing a draining worker reinstates it.
func TestPoolMembershipReconcile(t *testing.T) {
	ready := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ready.Close()
	now := time.Now()
	pool := newWorkerPool(FleetConfig{MaxInflight: 2, EjectAfter: 2, ReadmitAfter: time.Second}.withDefaults())

	added, removed := pool.setMembership([]string{ready.URL, "http://dead.invalid:1"}, now)
	if added != 2 || removed != 0 {
		t.Fatalf("initial reconcile = +%d/-%d, want +2/-0", added, removed)
	}
	if pool.memberCount() != 2 {
		t.Fatalf("memberCount = %d, want 2", pool.memberCount())
	}
	// Joiners are guilty until probed: nothing is dispatchable yet.
	if pool.healthyCount() != 0 {
		t.Fatalf("healthyCount before probe = %d, want 0", pool.healthyCount())
	}
	if w := pool.pick(""); w != nil {
		t.Fatalf("pick before probe returned %s", w.url)
	}
	// The probe admits the live worker and leaves the dead one out.
	pool.probe(ctxT(t), now, nil)
	if pool.healthyCount() != 1 {
		t.Fatalf("healthyCount after probe = %d, want 1", pool.healthyCount())
	}
	w := pool.pick("")
	if w == nil || w.url != ready.URL {
		t.Fatalf("pick = %+v, want the probed worker", w)
	}

	// Removing the busy worker drains it: no new picks, still a member of
	// nothing, and the lease release removes it.
	if _, removed = pool.setMembership([]string{"http://dead.invalid:1"}, now); removed != 1 {
		t.Fatalf("removal reconcile removed %d, want 1", removed)
	}
	if pool.memberCount() != 1 {
		t.Fatalf("memberCount during drain = %d, want 1 (the dead one)", pool.memberCount())
	}
	if got := pool.pick(""); got != nil {
		t.Fatalf("pick returned a draining worker: %s", got.url)
	}
	// Re-listing before the lease ends reinstates it.
	pool.setMembership([]string{ready.URL, "http://dead.invalid:1"}, now)
	if pool.memberCount() != 2 {
		t.Fatalf("memberCount after re-listing = %d, want 2", pool.memberCount())
	}
	if got := pool.pick(""); got == nil || got.url != ready.URL {
		t.Fatal("reinstated worker not dispatchable")
	}
	pool.release(w)
	pool.release(w) // drop both reserved slots

	// Remove again while idle: it leaves the pool immediately.
	pool.setMembership([]string{"http://dead.invalid:1"}, now)
	if pool.memberCount() != 1 {
		t.Fatalf("idle removal left memberCount = %d", pool.memberCount())
	}
}

// TestLoadWorkersFile pins the roster file format: comments, blanks, dedupe.
func TestLoadWorkersFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "workers.txt")
	content := "# fleet\nhttp://a:1\n\nhttp://b:2 # trailing comment\nhttp://a:1\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	urls, err := LoadWorkersFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(urls) != 2 || urls[0] != "http://a:1" || urls[1] != "http://b:2" {
		t.Fatalf("urls = %v", urls)
	}
	if _, err := LoadWorkersFile(filepath.Join(t.TempDir(), "missing.txt")); err == nil {
		t.Error("missing roster file did not error")
	}
}
