package service

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http"
	"testing"

	"dspatch/internal/experiments"
	"dspatch/internal/sweep"
	"dspatch/internal/trace"
)

// champRec assembles one 64-byte ChampSim input_instr holding a single
// source-memory load.
func champRec(ip, addr uint64, srcReg, destReg byte) []byte {
	rec := make([]byte, 64)
	binary.LittleEndian.PutUint64(rec[0:8], ip)
	rec[10] = destReg
	rec[12] = srcReg
	binary.LittleEndian.PutUint64(rec[32:40], addr)
	return rec
}

// convertedTraceData converts a tiny synthetic ChampSim binary trace into
// DSPTRC01 export bytes — the payload a trace-kind scenario spec inlines.
func convertedTraceData(t *testing.T, name string, n int) []byte {
	t.Helper()
	var in bytes.Buffer
	for i := 0; i < n; i++ {
		in.Write(champRec(uint64(0x400000+4*(i%17)), uint64(0x7f00_0000+64*i), byte(i%5), byte((i+1)%5)))
	}
	m, err := trace.Convert(bytes.NewReader(in.Bytes()), trace.ConvertOptions{Name: name, Seed: 1})
	if err != nil {
		t.Fatalf("Convert: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Export(&buf, 0); err != nil {
		t.Fatalf("Export: %v", err)
	}
	return buf.Bytes()
}

// mixedScenarioCampaign sweeps a builtin workload, an inline declarative
// scenario and a converted external trace across two prefetchers — the
// issue's acceptance shape. The trace holds more refs than the campaign
// simulates, as a finite trace cannot be extended.
func mixedScenarioCampaign(refs int, traceData []byte) sweep.Campaign {
	return sweep.Campaign{
		Name: "mixed-scenarios",
		Base: sweep.Point{Refs: refs},
		Axes: sweep.Axes{
			Workloads: []sweep.Mix{{"mcf"}, {"e2e-chase"}, {"e2e-trc"}},
			L2:        []string{"none", "dspatch"},
		},
		Scenarios: []trace.ScenarioSpec{
			{Name: "e2e-chase", Kind: trace.KindPointer,
				Pointer: &trace.PointerChaseConfig{Style: "list", Nodes: 2048, NodesPerPage: 8, Depth: 128, MeanGap: 10}},
			{Name: "e2e-trc", Kind: trace.KindTrace, Trace: &trace.TraceSpec{Data: traceData}},
		},
	}
}

func TestScenarioRegistrationEndpoint(t *testing.T) {
	t.Cleanup(trace.ResetShared)
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)

	spec := trace.ScenarioSpec{Name: "api-chase", Kind: trace.KindPointer,
		Pointer: &trace.PointerChaseConfig{Style: "tree", Nodes: 4096, NodesPerPage: 8, Depth: 10, Fanout: 4, MeanGap: 12}}
	regs, err := c.RegisterScenarios(ctx, []trace.ScenarioSpec{spec})
	if err != nil {
		t.Fatalf("RegisterScenarios: %v", err)
	}
	if len(regs) != 1 || regs[0].Source != trace.SourceSpec || regs[0].Fingerprint == "" {
		t.Fatalf("registration response: %+v", regs)
	}
	// Idempotent re-registration succeeds; a conflicting redefinition is 409.
	if _, err := c.RegisterScenarios(ctx, []trace.ScenarioSpec{spec}); err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}
	spec.Pointer.Nodes = 8192
	_, err = c.RegisterScenarios(ctx, []trace.ScenarioSpec{spec})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusConflict {
		t.Fatalf("conflict error = %v, want 409", err)
	}

	// The roster reports sources, and the registered scenario is usable.
	ws, err := c.Workloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bySrc := map[string]string{}
	for _, w := range ws {
		bySrc[w.Name] = w.Source
	}
	if bySrc["mcf"] != trace.SourceBuiltin {
		t.Errorf("mcf source = %q, want builtin", bySrc["mcf"])
	}
	if bySrc["api-chase"] != trace.SourceSpec {
		t.Errorf("api-chase source = %q, want spec", bySrc["api-chase"])
	}
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"api-chase"}, Refs: 700})
	if err != nil {
		t.Fatal(err)
	}
	if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("run of registered scenario: status %q err %v", j.Status, err)
	}
}

// TestCampaignMixesBuiltinImportedAndSpecScenarios is the issue's
// single-node acceptance: a campaign whose workloads axis mixes a builtin
// workload, a converted external trace and an inline declarative spec runs
// end to end through the daemon, its point records are byte-identical to a
// local engine run, and resubmitting it re-simulates nothing.
func TestCampaignMixesBuiltinImportedAndSpecScenarios(t *testing.T) {
	t.Cleanup(trace.ResetShared)
	camp := mixedScenarioCampaign(617, convertedTraceData(t, "e2e-trc", 900))
	want := localReference(t, camp)

	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitCampaign(ctx, camp)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("campaign: status %q err %v", j.Status, err)
	}
	recs, err := c.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("daemon emitted %d records, local %d", len(recs), len(want))
	}
	for k := range want {
		a, b := want[k], string(recs[k])
		if k == len(want)-1 {
			a, b = stripFleetTelemetry(t, a), stripFleetTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs:\nlocal:  %s\ndaemon: %s", k, a, b)
		}
	}

	// Resubmission: every run — including the imported-trace and spec-based
	// ones, whose cache keys fold content fingerprints — is served from the
	// memo with zero new simulations.
	sims := experiments.EngineCounters().Sims
	j2, err := c.SubmitCampaign(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	if j2, err = c.Wait(ctx, j2.ID); err != nil || j2.Status != StatusDone {
		t.Fatalf("resubmission: status %q err %v", j2.Status, err)
	}
	if got := experiments.EngineCounters().Sims; got != sims {
		t.Errorf("resubmission ran %d new simulations, want 0", got-sims)
	}
	recs2, err := c.CampaignRecords(ctx, j2.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k := range recs {
		a, b := string(recs[k]), string(recs2[k])
		if k == len(recs)-1 {
			a, b = stripFleetTelemetry(t, a), stripFleetTelemetry(t, b)
		}
		if a != b {
			t.Errorf("resubmission record %d differs", k)
		}
	}
}

// TestImportedScenarioCampaignResumesFromDiskCache models a daemon restart
// between two submissions of a scenario-bearing campaign: the in-process
// memo and the scenario registry are both gone, the resubmitted campaign
// re-registers its specs, and — because cache keys fold the scenario
// fingerprints — every run is served from the persistent disk cache without
// touching the simulator.
func TestImportedScenarioCampaignResumesFromDiskCache(t *testing.T) {
	cacheDir := t.TempDir()
	experiments.ResetMemo()
	t.Cleanup(func() {
		if err := experiments.SetCacheDir(""); err != nil {
			t.Error(err)
		}
	})
	t.Cleanup(trace.ResetShared)
	camp := mixedScenarioCampaign(613, convertedTraceData(t, "e2e-trc", 900))

	_, c := newTestServer(t, Config{JobWorkers: 1, CacheDir: cacheDir})
	ctx := ctxT(t)
	j, err := c.SubmitCampaign(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("first campaign: status %q err %v", j.Status, err)
	}
	recs, err := c.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := experiments.EngineCounters()

	experiments.ResetMemo()
	trace.ResetShared()

	j2, err := c.SubmitCampaign(ctx, camp)
	if err != nil {
		t.Fatal(err)
	}
	if j2, err = c.Wait(ctx, j2.ID); err != nil || j2.Status != StatusDone {
		t.Fatalf("resumed campaign: status %q err %v", j2.Status, err)
	}
	recs2, err := c.CampaignRecords(ctx, j2.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("resumed campaign emitted %d records, first %d", len(recs2), len(recs))
	}
	for k := range recs {
		a, b := string(recs[k]), string(recs2[k])
		if k == len(recs)-1 {
			a, b = stripFleetTelemetry(t, a), stripFleetTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs after restart:\nfirst:  %s\nresume: %s", k, a, b)
		}
	}
	after := experiments.EngineCounters()
	if sims := after.Sims - afterFirst.Sims; sims != 0 {
		t.Errorf("resumed campaign invoked the simulator %d times, want 0", sims)
	}
	if after.DiskHits == afterFirst.DiskHits {
		t.Error("resumed campaign never hit the disk cache")
	}
}

// TestFleetForwardsScenarioSpecs runs the mixed campaign through a
// coordinator and worker daemons: the coordinator attaches the defining
// specs (inline trace bytes included) to every dispatched point, and the
// stream stays byte-identical to a single-node run.
func TestFleetForwardsScenarioSpecs(t *testing.T) {
	t.Cleanup(trace.ResetShared)
	camp := mixedScenarioCampaign(619, convertedTraceData(t, "e2e-trc", 900))
	want := localReference(t, camp)

	urls := newWorkerFleet(t, 2, nil)
	_, c := newTestServer(t, Config{JobWorkers: 1, StoreDir: t.TempDir(), Fleet: fleetTestConfig(urls)})
	ctx := ctxT(t)
	j, err := c.SubmitCampaign(ctx, camp)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if j, err = c.Wait(ctx, j.ID); err != nil || j.Status != StatusDone {
		t.Fatalf("fleet campaign: status %q err %v", j.Status, err)
	}
	recs, err := c.CampaignRecords(ctx, j.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
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
}
