package sweep

import (
	"context"
	"encoding/json"
	"testing"

	"dspatch/internal/experiments"
)

// TestWarmCampaignAllocsPerPoint bounds the garbage of the warm read path,
// the way a restarted daemon serves a resubmitted campaign: every run is
// already in the DirStore that is both the engine's run cache and the
// campaign's store, the memo is empty, and each point's record is marshaled
// for the stream. The budget covers the whole engine run — expansion,
// deduplication into runs, the store reads and the records — divided by
// the campaign's points.
func TestWarmCampaignAllocsPerPoint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	// Allocations per point: 65 before the warm path was cut down, about 30
	// after, about 14 once store reads, run keys, memo entries and point
	// records stopped allocating per run. The budget is half of 32.
	const budget = 16
	ds, err := experiments.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	experiments.SetResultStore(ds)
	experiments.ResetMemo()
	t.Cleanup(func() {
		experiments.SetResultStore(nil)
		experiments.ResetMemo()
	})
	c := Campaign{
		Base: Point{Refs: 661}, // distinctive refs: runs unique to this test
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}, {"linpack"}, {"kmeans"}},
			Seeds:     []int64{1, 2},
			L2:        []string{"none", "spp", "dspatch+spp"},
		},
	}
	eng := Engine{Workers: 1, Store: ds}
	records := 0
	emit := func(line json.RawMessage) error {
		records++
		return nil
	}
	run := func() {
		experiments.ResetMemo()
		if _, err := eng.Run(context.Background(), c, emit); err != nil {
			t.Fatal(err)
		}
	}
	run() // prime the store
	c0 := experiments.EngineCounters()
	records = 0
	allocs := testing.AllocsPerRun(5, run)
	if sims := experiments.EngineCounters().Sims - c0.Sims; sims != 0 {
		t.Fatalf("warm runs simulated %d runs, want 0", sims)
	}
	n := len(c.Axes.Workloads) * len(c.Axes.Seeds) * len(c.Axes.L2)
	if want := 6 * (n + 2); records != want { // header, points and summary, one warm-up and five measured runs
		t.Fatalf("emitted %d records, want %d", records, want)
	}
	perPoint := allocs / float64(n)
	t.Logf("%.2f allocations per warm point", perPoint)
	if perPoint > budget {
		t.Errorf("warm campaign allocates %.2f times per point, budget %d", perPoint, budget)
	}
}
