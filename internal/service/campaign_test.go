package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/sweep"
)

func tinyCampaign(refs int) sweep.Campaign {
	return sweep.Campaign{
		Name: "svc",
		Base: sweep.Point{Refs: refs},
		Axes: sweep.Axes{
			Workloads: []sweep.Mix{{"mcf"}, {"tpcc"}},
			L2:        []string{"none", "spp"},
		},
	}
}

func TestCampaignSubmitStreamAndResubmitCached(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 2})
	ctx := ctxT(t)
	spec := tinyCampaign(641) // distinctive refs: runs unique to this test

	j, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	if j.Kind != "campaign" || j.Campaign == nil || j.Campaign.Name != "svc" {
		t.Fatalf("job view = %+v", j)
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
	if len(recs) != 1+4+1 { // header, 4 points, summary
		t.Fatalf("records = %d:\n%s", len(recs), recs)
	}
	var hdr sweep.Header
	if err := json.Unmarshal(recs[0], &hdr); err != nil || hdr.Type != "campaign" || hdr.Points != 4 {
		t.Fatalf("header = %s (%v)", recs[0], err)
	}
	// The job result is the summary record, byte for byte.
	if string(j.Result) != string(recs[len(recs)-1]) {
		t.Fatalf("job result is not the summary:\n%s\n%s", j.Result, recs[len(recs)-1])
	}

	// Resubmit: identical point records, zero new simulations.
	c0 := experiments.EngineCounters()
	j2, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if _, err := c.Wait(ctx, j2.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	c1 := experiments.EngineCounters()
	if d := c1.Sims - c0.Sims; d != 0 {
		t.Errorf("resubmitted campaign simulated %d points, want 0", d)
	}
	recs2, err := c.CampaignRecords(ctx, j2.ID, 0)
	if err != nil {
		t.Fatalf("CampaignRecords: %v", err)
	}
	for i := range recs[:len(recs)-1] {
		if string(recs[i]) != string(recs2[i]) {
			t.Errorf("record %d differs across submissions:\n%s\n%s", i, recs[i], recs2[i])
		}
	}
}

func TestCampaignFollowStreamsWhileRunning(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitCampaign(ctx, tinyCampaign(643))
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	// Follow with a wait window: the stream must end with the summary even
	// though the job was (likely) still queued when the GET arrived.
	recs, err := c.CampaignRecords(ctx, j.ID, 30*time.Second)
	if err != nil {
		t.Fatalf("CampaignRecords: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("empty stream")
	}
	var last struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(recs[len(recs)-1], &last); err != nil || last.Type != "summary" {
		t.Fatalf("stream did not end in a summary: %s", recs[len(recs)-1])
	}
}

func TestCampaignValidationAndRouting(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1})
	ctx := ctxT(t)

	// Invalid spec: 400 with the sweep error surfaced.
	_, err := c.SubmitCampaign(ctx, sweep.Campaign{})
	var ae *APIError
	if !asAPIError(err, &ae) || ae.StatusCode != http.StatusBadRequest || !strings.Contains(ae.Message, "workload") {
		t.Fatalf("empty campaign: %v", err)
	}

	// Unknown id: 404.
	if _, err := c.CampaignRecords(ctx, "j9999", 0); !asAPIError(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %v", err)
	}

	// A run job is not a campaign: the stream endpoint must 404 rather than
	// serve an empty stream.
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: 500})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CampaignRecords(ctx, j.ID, 0); !asAPIError(err, &ae) || ae.StatusCode != http.StatusNotFound {
		t.Fatalf("run job streamed as campaign: %v", err)
	}
}

// TestWaitValidationAndClamp covers the long-poll guardrails: negative
// durations are rejected with 400, and a wait far beyond Config.MaxWait
// pins the handler for at most MaxWait.
func TestWaitValidationAndClamp(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, MaxWait: 150 * time.Millisecond})
	ctx := ctxT(t)

	// A long-running job keeps the poll from returning via completion.
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: maxRefs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Cancel(ctx, j.ID) })

	cases := []struct {
		name    string
		wait    string
		status  int
		wantErr string
	}{
		{"negative", "-5s", http.StatusBadRequest, "non-negative"},
		{"garbage", "10parsecs", http.StatusBadRequest, "wait"},
		{"clamped", "10h", http.StatusOK, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			resp, err := http.Get(c.BaseURL + "/v1/jobs/" + j.ID + "?wait=" + tc.wait)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, buf.String())
			}
			if tc.wantErr != "" && !strings.Contains(buf.String(), tc.wantErr) {
				t.Errorf("body = %s, want %q", buf.String(), tc.wantErr)
			}
			if tc.status == http.StatusOK {
				// The 10h request must return once MaxWait elapses, not hold
				// the handler goroutine for hours.
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					t.Errorf("clamped long-poll took %s", elapsed)
				}
				if !strings.Contains(buf.String(), `"status"`) {
					t.Errorf("clamped poll did not return the job: %s", buf.String())
				}
			}
		})
	}
}

// TestCampaignStreamRetentionCap: only the newest MaxCampaignStreams
// terminal campaigns keep their NDJSON streams; older ones answer 410 —
// surfaced by the client as *CampaignEvictedError — while their summary
// stays on the job record.
func TestCampaignStreamRetentionCap(t *testing.T) {
	_, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 2, MaxCampaignStreams: 1})
	ctx := ctxT(t)

	first, err := c.SubmitCampaign(ctx, tinyCampaign(647))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, first.ID); err != nil {
		t.Fatal(err)
	}
	second, err := c.SubmitCampaign(ctx, tinyCampaign(653))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, second.ID); err != nil {
		t.Fatal(err)
	}

	var ev *CampaignEvictedError
	if _, err := c.CampaignRecords(ctx, first.ID, 0); !errors.As(err, &ev) || ev.ID != first.ID {
		t.Fatalf("evicted stream: got %v, want *CampaignEvictedError for %s", err, first.ID)
	}
	// The job record — summary included — survives the stream eviction.
	j, err := c.Job(ctx, first.ID)
	if err != nil || j.Status != StatusDone || len(j.Result) == 0 {
		t.Fatalf("evicted campaign's job record damaged: %+v (err %v)", j, err)
	}
	// The newest campaign's stream is still fully readable.
	recs, err := c.CampaignRecords(ctx, second.ID, 0)
	if err != nil || len(recs) != 6 {
		t.Fatalf("retained stream: %d records, err %v", len(recs), err)
	}
}

// TestCampaignFeedWakesBlockedFollower blocks a follower in next before each
// append: every append must close the channel the follower holds, and the
// follower must then read exactly the appended record.
func TestCampaignFeedWakesBlockedFollower(t *testing.T) {
	const n = 50
	f := &campaignFeed{}
	blocked := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			recs, changed := f.next(i)
			if len(recs) != 0 {
				errc <- errors.New("record readable before its append")
				return
			}
			blocked <- struct{}{}
			select {
			case <-changed:
			case <-time.After(10 * time.Second):
				errc <- errors.New("follower not woken by append")
				return
			}
			if recs, _ = f.next(i); len(recs) != 1 || string(recs[0]) != string(rune('a'+i%26)) {
				errc <- errors.New("follower read the wrong records after a wake-up")
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		select {
		case <-blocked:
		case err := <-errc:
			t.Fatalf("before append %d: %v", i, err)
		}
		f.append(json.RawMessage(string(rune('a' + i%26))))
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestCampaignFeedAppendWithoutFollowerAllocatesNoChannel: with nobody
// waiting, an append only stores its record; the broadcast channel is made
// when a caught-up follower asks for one and closed by the append after.
func TestCampaignFeedAppendWithoutFollowerAllocatesNoChannel(t *testing.T) {
	const runs = 100
	f := &campaignFeed{recs: make([]json.RawMessage, 0, 2*runs+2)}
	rec := json.RawMessage(`{}`)
	if allocs := testing.AllocsPerRun(runs, func() { f.append(rec) }); allocs != 0 {
		t.Errorf("append with no follower: %.1f allocations, want 0", allocs)
	}
	if f.changed != nil {
		t.Fatal("append with no follower made a broadcast channel")
	}
	_, changed := f.next(len(f.recs))
	f.append(rec)
	select {
	case <-changed:
	default:
		t.Fatal("append did not close the channel a follower took")
	}
	if allocs := testing.AllocsPerRun(runs, func() { f.append(rec) }); allocs != 0 {
		t.Errorf("append after the follower's wake-up: %.1f allocations, want 0", allocs)
	}
}
