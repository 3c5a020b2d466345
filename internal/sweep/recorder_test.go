package sweep

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
)

// mustPlan returns c's plan, failing the test on an error.
func mustPlan(t *testing.T, c Campaign) *Plan {
	t.Helper()
	p, err := c.Plan()
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	return p
}

// recorderCampaign is a distinct spec (refs=659) so memo cross-talk with
// other tests can't mask a simulation.
func recorderCampaign() Campaign {
	return Campaign{
		Name: "rec",
		Base: Point{Refs: 659},
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}},
			L2:        []string{"none", "spp"},
		},
	}
}

// runPoint simulates one point through the shared engine.
func runPoint(t *testing.T, p Point) sim.Result {
	t.Helper()
	res, err := experiments.RunJobs(context.Background(), []experiments.Job{p.Job()}, 1)
	if err != nil {
		t.Fatalf("RunJobs: %v", err)
	}
	return res[0]
}

// TestRecorderOutOfOrderMatchesEngine feeds completions in reverse position
// order — the worst case a fleet can produce — and requires the stream to be
// byte-identical to Engine.Run's. This is the invariant the coordinator
// leans on: stream bytes are a pure function of the spec, not of scheduling.
func TestRecorderOutOfOrderMatchesEngine(t *testing.T) {
	c := recorderCampaign()
	want := collect(t, Engine{Workers: 2}, c)

	var got []string
	rec, err := NewRecorder(mustPlan(t, c), func(line json.RawMessage) error {
		got = append(got, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	for pos := rec.Len() - 1; pos >= 0; pos-- {
		self, base, hasBase := rec.Pair(pos)
		var basep *sim.Result
		if hasBase {
			r := runPoint(t, base)
			basep = &r
		}
		if err := rec.Complete(pos, runPoint(t, self), basep); err != nil {
			t.Fatalf("Complete(%d): %v", pos, err)
		}
	}
	if _, err := rec.Finish(nil); err != nil {
		t.Fatalf("Finish: %v", err)
	}

	if len(got) != len(want) {
		t.Fatalf("recorder emitted %d records, engine %d", len(got), len(want))
	}
	for k := range want {
		a, b := want[k], got[k]
		if k == len(want)-1 {
			a, b = stripSummaryTelemetry(t, a), stripSummaryTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs:\nengine:   %s\nrecorder: %s", k, a, b)
		}
	}
}

// TestRecorderDropAccounting drops one position mid-stream: the stream must
// continue past it, the summary must list it under dropped_points with its
// reason, and nothing else about the surviving records may change.
func TestRecorderDropAccounting(t *testing.T) {
	c := recorderCampaign()
	var lines []string
	rec, err := NewRecorder(mustPlan(t, c), func(line json.RawMessage) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	n := rec.Len()
	if n < 3 {
		t.Fatalf("campaign too small: %d points", n)
	}
	dropPos := 1
	for pos := 0; pos < n; pos++ {
		if pos == dropPos {
			if err := rec.Drop(pos, "max attempts (4) exhausted: worker error"); err != nil {
				t.Fatalf("Drop: %v", err)
			}
			// A late completion for a dropped position must be ignored.
			if err := rec.Drop(pos, "other reason"); err != nil {
				t.Fatalf("second Drop: %v", err)
			}
			continue
		}
		self, base, hasBase := rec.Pair(pos)
		var basep *sim.Result
		if hasBase {
			r := runPoint(t, base)
			basep = &r
		}
		if err := rec.Complete(pos, runPoint(t, self), basep); err != nil {
			t.Fatalf("Complete(%d): %v", pos, err)
		}
	}
	sum, err := rec.Finish(&FleetSummary{Workers: 3, Dispatches: 7, Redispatches: 3})
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	// Header + (n-1) points + summary.
	if len(lines) != 1+(n-1)+1 {
		t.Fatalf("records = %d, want %d", len(lines), n+1)
	}
	for _, line := range lines[1 : len(lines)-1] {
		if strings.Contains(line, `"index":1,`) {
			t.Fatalf("dropped point leaked into the stream: %s", line)
		}
	}
	if len(sum.DroppedPoints) != 1 {
		t.Fatalf("DroppedPoints = %+v", sum.DroppedPoints)
	}
	dp := sum.DroppedPoints[0]
	if dp.Index != 1 || dp.Reason != "max attempts (4) exhausted: worker error" {
		t.Fatalf("dropped point = %+v", dp)
	}
	if sum.Fleet == nil || sum.Fleet.Workers != 3 || sum.Fleet.Redispatches != 3 {
		t.Fatalf("Fleet = %+v", sum.Fleet)
	}
	// The marshaled summary line carries both.
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"dropped_points":[`) || !strings.Contains(last, `"fleet":{`) {
		t.Fatalf("summary line missing fleet fields: %s", last)
	}
}

// TestRecorderFinishRefusesUnresolved ensures a wedged run can't silently
// lose points: Finish fails loudly while positions are unaccounted for.
func TestRecorderFinishRefusesUnresolved(t *testing.T) {
	rec, err := NewRecorder(mustPlan(t, recorderCampaign()), nil)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	if _, err := rec.Finish(nil); err == nil {
		t.Fatal("Finish succeeded with every position unresolved")
	}
}

// TestRecorderResolutionIsFinal covers the dispatcher races a fleet can
// produce: a late Complete for a position already dropped (the lease expired,
// then the original worker answered anyway), a Drop for a position already
// completed (a stale retry path giving up after the point succeeded
// elsewhere), and a Drop for a position already flushed to the stream. Every
// one must be a silent no-op — first resolution wins, the stream and summary
// never change.
func TestRecorderResolutionIsFinal(t *testing.T) {
	c := recorderCampaign()
	var lines []string
	rec, err := NewRecorder(mustPlan(t, c), func(line json.RawMessage) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	n := rec.Len()
	if n < 3 {
		t.Fatalf("campaign too small: %d points", n)
	}

	results := make([]sim.Result, n)
	bases := make([]*sim.Result, n)
	for pos := 0; pos < n; pos++ {
		self, base, hasBase := rec.Pair(pos)
		results[pos] = runPoint(t, self)
		if hasBase {
			r := runPoint(t, base)
			bases[pos] = &r
		}
	}

	// Position 0 completes and flushes immediately; a later Drop must not
	// touch it (the old bug appended it to dropped_points anyway).
	if err := rec.Complete(0, results[0], bases[0]); err != nil {
		t.Fatalf("Complete(0): %v", err)
	}
	if !rec.Resolved(0) {
		t.Fatal("flushed position 0 not Resolved")
	}
	flushedAt := len(lines)
	if err := rec.Drop(0, "stale retry gave up"); err != nil {
		t.Fatalf("Drop after flush: %v", err)
	}
	if len(lines) != flushedAt {
		t.Fatal("Drop of a flushed position emitted a record")
	}

	// Position 1 drops; a late Complete (the leased worker answering after
	// the lease expired) must not resurrect it.
	if err := rec.Drop(1, "max attempts (4) exhausted: lease expired"); err != nil {
		t.Fatalf("Drop(1): %v", err)
	}
	if err := rec.Complete(1, results[1], bases[1]); err != nil {
		t.Fatalf("late Complete after Drop: %v", err)
	}

	// Position 2 completes while pending (not yet flushable behind nothing —
	// it flushes right away after 0 and the dropped 1); a second Complete and
	// a Drop must both be no-ops.
	if err := rec.Complete(2, results[2], bases[2]); err != nil {
		t.Fatalf("Complete(2): %v", err)
	}
	if err := rec.Complete(2, results[2], bases[2]); err != nil {
		t.Fatalf("duplicate Complete(2): %v", err)
	}
	if err := rec.Drop(2, "duplicate give-up"); err != nil {
		t.Fatalf("Drop after Complete: %v", err)
	}

	for pos := 3; pos < n; pos++ {
		if err := rec.Complete(pos, results[pos], bases[pos]); err != nil {
			t.Fatalf("Complete(%d): %v", pos, err)
		}
	}
	sum, err := rec.Finish(nil)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	if len(sum.DroppedPoints) != 1 || sum.DroppedPoints[0].Index != 1 {
		t.Fatalf("DroppedPoints = %+v, want exactly index 1", sum.DroppedPoints)
	}
	// Header + (n-1) surviving points + summary; index 1 never appears.
	if len(lines) != 1+(n-1)+1 {
		t.Fatalf("records = %d, want %d", len(lines), n+1)
	}
	for _, line := range lines[1 : len(lines)-1] {
		if strings.Contains(line, `"index":1,`) {
			t.Fatalf("dropped point leaked into the stream: %s", line)
		}
	}
}
