package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
)

// collect runs c and returns every emitted NDJSON line.
func collect(t *testing.T, e Engine, c Campaign) []string {
	t.Helper()
	var lines []string
	_, err := e.Run(context.Background(), c, func(line json.RawMessage) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return lines
}

// stripSummaryTelemetry zeroes the summary record's non-deterministic fields
// (engine cache/sim deltas, elapsed time) so streams can be compared.
func stripSummaryTelemetry(t *testing.T, line string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("summary: %v", err)
	}
	delete(m, "engine")
	delete(m, "elapsed_ms")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCampaignDeterministicStream is the determinism suite: the same spec
// (and sampling seed) must yield a byte-identical NDJSON stream — modulo the
// summary's telemetry fields — across runs, worker counts and batch sizes.
// A local batch holds as many trace-identity groups as there are workers, so
// the batch boundaries differ between the runs.
func TestCampaignDeterministicStream(t *testing.T) {
	c := Campaign{
		Name: "det",
		Base: Point{Refs: 601},
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}, {"linpack"}},
			Seeds:     []int64{1, 2, 3},
			L2:        []string{"none", "spp", "bop"},
		},
		Sample: Sample{Strategy: StrategyRandom, Points: 20, Seed: 3},
	}
	runs := [][]string{
		collect(t, Engine{Workers: 1}, c),
		collect(t, Engine{Workers: 8}, c),
		collect(t, Engine{Workers: 2}, c),
	}
	for i := 1; i < len(runs); i++ {
		if len(runs[i]) != len(runs[0]) {
			t.Fatalf("run %d emitted %d records, run 0 emitted %d", i, len(runs[i]), len(runs[0]))
		}
		for k := range runs[0] {
			a, b := runs[0][k], runs[i][k]
			if k == len(runs[0])-1 {
				a, b = stripSummaryTelemetry(t, a), stripSummaryTelemetry(t, b)
			}
			if a != b {
				t.Errorf("run %d record %d differs:\n%s\n%s", i, k, a, b)
			}
		}
	}
	// Shape sanity: header, 20 points, summary.
	if len(runs[0]) != 22 {
		t.Fatalf("records = %d, want 22", len(runs[0]))
	}
}

// TestRunLocalStreamsEachGroup: a local batch is the runs of Workers
// trace-identity groups, so at one worker the first point record is emitted
// as soon as the first group's lockstep batch finishes, before any other
// group has simulated.
func TestRunLocalStreamsEachGroup(t *testing.T) {
	experiments.ResetMemo() // every run cold, also under -count
	c := Campaign{
		Name: "stream",
		Base: Point{Refs: 1009},
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}, {"linpack"}},
			L2:        []string{"none", "spp", "bop"},
		},
	}
	const firstGroupRuns = 3 // mcf under none, spp and bop
	c0 := experiments.EngineCounters()
	firstSims := uint64(0)
	points := 0
	_, err := (&Engine{Workers: 1}).Run(context.Background(), c, func(line json.RawMessage) error {
		if bytes.Contains(line, []byte(`"type":"point"`)) {
			if points == 0 {
				firstSims = experiments.EngineCounters().Sims - c0.Sims
			}
			points++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if points != 9 {
		t.Fatalf("points = %d, want 9", points)
	}
	if firstSims != firstGroupRuns {
		t.Errorf("first point emitted after %d simulations, want the first group's %d", firstSims, firstGroupRuns)
	}
}

// TestCampaignResumeSimulatesOnlyMissingPoints is the kill-and-resume proof:
// a campaign canceled partway is resubmitted and must re-simulate only the
// points the first run never finished — across both runs every distinct
// point simulates exactly once, and a third submission is a pure cache hit
// (engine sims delta zero). Asserted via the engine Counters ledger.
func TestCampaignResumeSimulatesOnlyMissingPoints(t *testing.T) {
	c := Campaign{
		Name: "resume",
		Base: Point{Refs: 733}, // distinctive refs: no other test shares these runs
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}},
			Seeds:     []int64{21, 22, 23, 24, 25, 26},
			L2:        []string{"none", "spp"},
		},
	}
	const totalPoints = 24 // every point is a distinct simulation

	// Run 1: kill the campaign after the first batch lands. One worker
	// batches one trace-identity group (a mix and seed, two points), so the
	// campaign spans twelve batches.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := Engine{Workers: 1}
	c0 := experiments.EngineCounters()
	var firstLines []string
	_, err := eng.Run(ctx, c, func(line json.RawMessage) error {
		firstLines = append(firstLines, string(line))
		if bytes.Contains(line, []byte(`"type":"point"`)) {
			cancel() // "kill" as soon as the first batch of points lands
		}
		return nil
	})
	if err == nil {
		t.Fatal("canceled campaign returned nil error")
	}
	c1 := experiments.EngineCounters()
	simsFirst := c1.Sims - c0.Sims
	if simsFirst == 0 || simsFirst >= totalPoints {
		t.Fatalf("first (killed) run simulated %d of %d points; want a strict subset", simsFirst, totalPoints)
	}

	// Run 2: resubmit the identical campaign, at eight workers (eight
	// groups a batch). Only the missing points may simulate; everything the
	// killed run completed comes from the memo.
	eng = Engine{Workers: 8}
	lines := collect(t, eng, c)
	c2 := experiments.EngineCounters()
	simsResumed := c2.Sims - c1.Sims
	if simsFirst+simsResumed != totalPoints {
		t.Errorf("sims first=%d + resumed=%d != %d: a cached point was re-simulated (or one was lost)",
			simsFirst, simsResumed, totalPoints)
	}

	// The killed run's partial stream must be a byte-identical prefix of the
	// resumed run's stream: resumption changes nothing but the work done.
	for i, line := range firstLines {
		if lines[i] != line {
			t.Errorf("resumed record %d differs from killed run's:\n%s\n%s", i, lines[i], line)
		}
	}

	// Run 3: fully cached — zero simulations.
	collect(t, eng, c)
	c3 := experiments.EngineCounters()
	if d := c3.Sims - c2.Sims; d != 0 {
		t.Errorf("fully-cached resubmission simulated %d points, want 0", d)
	}
	if hits := c3.MemoHits - c2.MemoHits; hits == 0 {
		t.Error("fully-cached resubmission recorded no memo hits")
	}
}

// TestCampaignDiskCacheResume proves resume-for-free across processes: with
// the persistent cache enabled and the in-process memo dropped (a process
// restart), a resubmitted campaign is served entirely from disk.
func TestCampaignDiskCacheResume(t *testing.T) {
	dir := t.TempDir()
	if err := experiments.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		experiments.SetCacheDir("")
		experiments.ResetMemo()
	})

	c := Campaign{
		Base: Point{Refs: 877}, // distinctive refs: runs unique to this test
		Axes: Axes{Workloads: []Mix{{"mcf"}, {"kmeans"}}, L2: []string{"none", "spp"}},
	}
	eng := Engine{Workers: 2}
	first := collect(t, eng, c)

	experiments.ResetMemo() // simulate a fresh process
	c0 := experiments.EngineCounters()
	second := collect(t, eng, c)
	c1 := experiments.EngineCounters()
	if d := c1.Sims - c0.Sims; d != 0 {
		t.Errorf("disk-cached resubmission simulated %d points, want 0", d)
	}
	if d := c1.DiskHits - c0.DiskHits; d == 0 {
		t.Error("disk-cached resubmission recorded no disk hits")
	}
	for i := range first[:len(first)-1] {
		if first[i] != second[i] {
			t.Errorf("disk-cached record %d differs:\n%s\n%s", i, first[i], second[i])
		}
	}
}

// countingStore counts the writes that reach a ResultStore.
type countingStore struct {
	experiments.ResultStore
	puts atomic.Uint64
}

func (s *countingStore) Put(key string, res sim.Result) error {
	s.puts.Add(1)
	return s.ResultStore.Put(key, res)
}

// TestSharedStoreWritesEachRunOnce wires one store the way dspatchd does —
// the experiment engine's run cache and the campaign's Store are the same
// instance — and runs a journaled campaign on a cold memo. Every simulated
// run is written exactly once, and each point's done frame is journaled
// before its record is emitted and cites only runs the store holds.
func TestSharedStoreWritesEachRunOnce(t *testing.T) {
	ds, err := experiments.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &countingStore{ResultStore: ds}
	experiments.SetResultStore(st)
	experiments.ResetMemo()
	t.Cleanup(func() {
		experiments.SetResultStore(nil)
		experiments.ResetMemo()
	})
	c := Campaign{
		Base: Point{Refs: 743}, // distinctive refs: runs unique to this test
		Axes: Axes{Workloads: []Mix{{"mcf"}, {"tpcc"}}, L2: []string{"none", "spp"}},
	}
	path := filepath.Join(t.TempDir(), "c.journal")
	jl, err := CreateJournal(path, "j000001", c)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()

	c0 := experiments.EngineCounters()
	_, err = (&Engine{Workers: 2, Journal: jl, Store: st}).Run(context.Background(), c, func(line json.RawMessage) error {
		var rec PointRecord
		if json.Unmarshal(line, &rec) != nil || rec.Type != "point" {
			return nil
		}
		js, err := ReadJournalState(path)
		if err != nil {
			t.Fatal(err)
		}
		ev, ok := js.Done[int(rec.Index)]
		if !ok {
			t.Errorf("point %d emitted before its done frame was journaled", rec.Index)
		}
		for _, key := range []string{ev.Key, ev.Base} {
			if _, ok := ds.Get(key); key != "" && !ok {
				t.Errorf("done frame of point %d cites %q, which the store lacks", rec.Index, key)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sims := experiments.EngineCounters().Sims - c0.Sims
	if sims == 0 {
		t.Fatal("cold campaign simulated nothing")
	}
	if puts := st.puts.Load(); puts != sims {
		t.Errorf("store writes = %d for %d simulated runs, want one write per run", puts, sims)
	}
}

// TestCampaignReproducesFig4 is the acceptance check behind
// examples/campaign: Fig. 4 phrased as a campaign spec must render byte-
// identically to the registry experiment at the same scale.
func TestCampaignReproducesFig4(t *testing.T) {
	s := experiments.Quick()
	s.Refs = 1109
	s.PerCategory = 1
	ws := s.Workloads()
	pfs := []sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP}

	mixes := make([]Mix, len(ws))
	for i, w := range ws {
		mixes[i] = Mix{w.Name}
	}
	spec := Campaign{
		Name: "fig4",
		Base: Point{Refs: s.Refs, Seed: s.Seed},
		Axes: Axes{
			Workloads: mixes,
			L2:        []string{"none", "bop", "sms", "spp"},
		},
	}

	var recs []PointRecord
	eng := Engine{Workers: 2}
	if _, err := eng.Run(context.Background(), spec, func(line json.RawMessage) error {
		var rec PointRecord
		if json.Unmarshal(line, &rec) == nil && rec.Type == "point" && !rec.Baseline {
			recs = append(recs, rec)
		}
		return nil
	}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != len(ws)*len(pfs) {
		t.Fatalf("non-baseline records = %d, want %d", len(recs), len(ws)*len(pfs))
	}

	// Fold the point stream into the registry's CategoryResult shape via the
	// shared helper (the same one examples/campaign renders with).
	res := CategoryResultFromPoints(ws, pfs, recs)

	const title = "Fig 4: BOP/SMS/SPP by category (1ch DDR4-2133)"
	var fromCampaign, fromRegistry bytes.Buffer
	experiments.FormatCategory(&fromCampaign, title, res)
	e, ok := experiments.ExperimentByID("fig4")
	if !ok {
		t.Fatal("fig4 not in registry")
	}
	e.Format(&fromRegistry, e.Run(s))
	if fromCampaign.String() != fromRegistry.String() {
		t.Errorf("campaign rendering differs from registry fig4:\n%s\n---\n%s",
			fromCampaign.String(), fromRegistry.String())
	}
}

// TestCampaignBaselineOutsideAxis: when the l2 axis does not include the
// baseline, hidden baseline jobs still give every point a speedup.
func TestCampaignBaselineOutsideAxis(t *testing.T) {
	c := Campaign{
		Base: Point{Refs: 557},
		Axes: Axes{Workloads: []Mix{{"mcf"}}, L2: []string{"spp", "bop"}},
	}
	lines := collect(t, Engine{Workers: 1}, c)
	var sum Summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.BaselinePoints != 0 || sum.Points != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.GeomeanSpeedupPct == nil {
		t.Fatal("no aggregate speedup despite hidden baselines")
	}
	for _, line := range lines[1 : len(lines)-1] {
		var rec PointRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if len(rec.Speedup) != 1 {
			t.Errorf("point %d has no speedup: %s", rec.Index, line)
		}
	}
}

// TestCampaignMarginals: the summary's per-axis marginals cover exactly the
// swept axes (n >= 2) and every value label.
func TestCampaignMarginals(t *testing.T) {
	c := Campaign{
		Base: Point{Refs: 613},
		Axes: Axes{
			Workloads:    []Mix{{"mcf"}, {"tpcc"}},
			DRAMChannels: []int{1, 2},
			L2:           []string{"none", "spp"},
		},
	}
	lines := collect(t, Engine{Workers: 2}, c)
	var sum Summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatal(err)
	}
	wantAxes := map[string][]string{
		"workloads":     {"mcf", "tpcc"},
		"dram_channels": {"1", "2"},
		"l2":            {"spp"}, // baseline points carry no speedup
	}
	if len(sum.Marginals) != len(wantAxes) {
		t.Fatalf("marginal axes = %v", reflect.ValueOf(sum.Marginals).MapKeys())
	}
	for axis, labels := range wantAxes {
		got := sum.Marginals[axis]
		if len(got) != len(labels) {
			t.Errorf("marginals[%q] = %v, want labels %v", axis, got, labels)
			continue
		}
		for _, l := range labels {
			if _, ok := got[l]; !ok {
				t.Errorf("marginals[%q] missing %q: %v", axis, l, got)
			}
		}
	}
}

// TestRunWithExecutorCompletesOutOfOrderAndDrops drives the lifecycle with
// a custom Executor, as the fleet coordinator does: runs complete in
// reverse order and one run is dropped. The points needing the dropped run
// drop with its reason (and a journal frame), every point's done frame is
// durable before its record is emitted and cites results the store holds,
// and the kept records match a local run's byte for byte.
func TestRunWithExecutorCompletesOutOfOrderAndDrops(t *testing.T) {
	c := journalCampaign()
	want := collect(t, Engine{Workers: 2}, c)
	store := newMemStore()
	path := filepath.Join(t.TempDir(), "c.journal")
	jl, err := CreateJournal(path, "j000001", c)
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Close()

	const reason = "max attempts (4) exhausted: test"
	exec := func(ctx context.Context, rs *Runs) (*FleetSummary, error) {
		if rs.Len() != 4 {
			t.Fatalf("pending runs = %d, want 4", rs.Len())
		}
		jobs := make([]experiments.Job, rs.Len())
		for i := range jobs {
			p := rs.Point(i)
			jobs[i] = p.Job()
		}
		results, err := experiments.RunJobs(ctx, jobs, 2)
		if err != nil {
			return nil, err
		}
		dropped := -1
		for i := 0; i < rs.Len(); i++ {
			if p := rs.Point(i); p.Workloads[0] == "tpcc" && p.L2 == "none" {
				dropped = i
				if err := rs.Drop(i, reason); err != nil {
					return nil, err
				}
			}
		}
		for i := rs.Len() - 1; i >= 0; i-- {
			if i != dropped {
				if err := rs.Complete(i, results[i]); err != nil {
					return nil, err
				}
			}
		}
		if rs.Open() != 0 {
			t.Errorf("open points after every run reported = %d", rs.Open())
		}
		return &FleetSummary{Workers: 1}, nil
	}
	var got []string
	eng := Engine{Journal: jl, Store: store}
	sum, err := eng.RunWith(context.Background(), mustPlan(t, c), func(line json.RawMessage) error {
		got = append(got, string(line))
		var rec PointRecord
		if json.Unmarshal(line, &rec) == nil && rec.Type == "point" {
			st, err := ReadJournalState(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := st.Done[int(rec.Index)]; !ok {
				t.Errorf("point %d emitted before its done frame was journaled", rec.Index)
			}
		}
		return nil
	}, exec)
	if err != nil {
		t.Fatalf("RunWith: %v", err)
	}

	// Header, the two mcf points, summary.
	if len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("stream:\n%s\nwant the header and mcf records of:\n%s", got, want)
	}
	if len(sum.DroppedPoints) != 2 || sum.DroppedPoints[0].Reason != reason || sum.DroppedPoints[1].Index != 3 {
		t.Fatalf("dropped points = %+v", sum.DroppedPoints)
	}
	if sum.Fleet == nil || sum.Fleet.Workers != 1 {
		t.Fatalf("fleet summary = %+v", sum.Fleet)
	}

	st, err := ReadJournalState(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed || len(st.Done) != 2 || len(st.Dropped) != 2 || st.Dropped[2] != reason {
		t.Fatalf("journal: sealed %v, done %v, dropped %v", st.Sealed, st.Done, st.Dropped)
	}
	for pos, ev := range st.Done {
		for _, key := range []string{ev.Key, ev.Base} {
			if _, ok := store.Get(key); key != "" && !ok {
				t.Errorf("journaled completion of point %d cites %q, which the store lacks", pos, key)
			}
		}
	}
}
