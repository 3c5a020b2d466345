package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dspatch/internal/experiments"
)

// Tests for the robustness surfaces around the fleet work: client-side 503
// retry, the liveness/readiness split, and campaign follow streams ending
// cleanly when a drain interrupts them.

// shedServer answers its first fail requests with 503 + Retry-After, then
// forwards a fixed 200 body. It counts every request it sees.
func shedServer(t *testing.T, fail int, retryAfter string, okBody string) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	var hits atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int32(fail) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, `{"error":"shed"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, okBody)
	}))
	t.Cleanup(hs.Close)
	return hs, &hits
}

func TestClientRetriesShedWithBackoff(t *testing.T) {
	hs, hits := shedServer(t, 2, "0", `{"status":"ok"}`)
	c := NewClient(hs.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
	h, err := c.Health(ctxT(t))
	if err != nil {
		t.Fatalf("Health after shed burst: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if got := hits.Load(); got != 3 {
		t.Errorf("requests = %d, want 3 (two sheds + success)", got)
	}
}

func TestClientNilRetrySurfacesShedImmediately(t *testing.T) {
	hs, hits := shedServer(t, 1_000_000, "2", "")
	c := NewClient(hs.URL) // Retry nil: the caller owns retry accounting
	_, err := c.Health(ctxT(t))
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if ae.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", ae.StatusCode)
	}
	if ae.RetryAfter != 2*time.Second {
		t.Errorf("RetryAfter = %v, want 2s (parsed from header)", ae.RetryAfter)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("requests = %d, want exactly 1 with Retry nil", got)
	}
}

func TestClientRetryBoundedByContext(t *testing.T) {
	hs, hits := shedServer(t, 1_000_000, "0", "")
	c := NewClient(hs.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 1000, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Health(ctx)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop outlived its context by %v", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := hits.Load(); got < 1 {
		t.Errorf("requests = %d, want >= 1", got)
	}
}

// probe GETs a bare endpoint and returns the status code and body.
func probeEndpoint(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestLivezReadyzSplitAcrossDrain proves the liveness/readiness split: both
// answer 200 on a healthy daemon, readiness flips to 503 the moment a drain
// begins — while a job is still finishing — and liveness stays 200
// throughout, so restart policies don't kill a draining process.
func TestLivezReadyzSplitAcrossDrain(t *testing.T) {
	s, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)

	if code, body := probeEndpoint(t, c.BaseURL+"/livez"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/livez = %d %q, want 200 ok", code, body)
	}
	if code, _ := probeEndpoint(t, c.BaseURL+"/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz = %d, want 200 before drain", code)
	}

	// A long job keeps the drain in progress while we probe.
	j, err := c.SubmitRun(ctx, RunSpec{Workloads: []string{"linpack"}, Refs: maxRefs})
	if err != nil {
		t.Fatal(err)
	}
	waitDequeued(t, c, j.ID)

	drainCtx, stopDrain := context.WithCancel(context.Background())
	drainDone := make(chan struct{})
	go func() { s.Drain(drainCtx); close(drainDone) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		if code, _ := probeEndpoint(t, c.BaseURL+"/readyz"); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped to 503 after drain began")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := probeEndpoint(t, c.BaseURL+"/livez"); code != http.StatusOK || body != "ok\n" {
		t.Errorf("/livez during drain = %d %q, want 200 ok", code, body)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("health status = %q, want draining", h.Status)
	}

	stopDrain() // out of patience: cancel the straggler so Drain returns
	select {
	case <-drainDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return after its context was canceled")
	}
}

// TestCampaignFollowerDrainCleanPrefix is the follower-interruption
// acceptance scenario: a client following a campaign stream when the daemon
// is told to drain mid-campaign gets a cleanly terminated stream whose
// content is a byte-identical prefix of the single-node reference — partial,
// never corrupt.
func TestCampaignFollowerDrainCleanPrefix(t *testing.T) {
	// Distinctive refs, unique to this test — sized so the first point
	// record lands well inside one follow window even under -race, while
	// staying slow enough that the drain usually interrupts the campaign.
	spec := tinyCampaign(800_003)
	want := localReference(t, spec)
	experiments.ResetMemo() // make the daemon's run cold so the drain lands mid-campaign

	s, c := newTestServer(t, Config{JobWorkers: 1, SimWorkers: 1})
	ctx := ctxT(t)
	j, err := c.SubmitCampaign(ctx, spec)
	if err != nil {
		t.Fatalf("SubmitCampaign: %v", err)
	}
	stream, err := c.CampaignStream(ctx, j.ID, 25*time.Second)
	if err != nil {
		t.Fatalf("CampaignStream: %v", err)
	}
	defer stream.Close()
	sc := bufio.NewScanner(stream)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	// Follow until the header and the first point record have arrived, then
	// yank the rug: drain with an already-expired context (the SIGTERM +
	// exhausted grace shape), which cancels the running campaign.
	var got []string
	for len(got) < 2 && sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			got = append(got, line)
		}
	}
	if len(got) < 2 {
		t.Fatalf("stream ended after %d records (scan err %v)", len(got), sc.Err())
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s.Drain(expired)

	// The stream must end cleanly — no hang, no mid-line truncation.
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			got = append(got, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}

	if len(got) > len(want) {
		t.Fatalf("follower got %d records, local reference has %d", len(got), len(want))
	}
	for k, line := range got {
		a := want[k]
		if k == len(want)-1 { // full campaign sneaked through: summary telemetry differs
			a, line = stripFleetTelemetry(t, a), stripFleetTelemetry(t, line)
		}
		if line != a {
			t.Errorf("record %d is not a byte-identical prefix:\nlocal: %s\ngot:   %s", k, a, line)
		}
	}
	// Every received line is intact JSON.
	for k, line := range got {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Errorf("record %d is torn: %v", k, err)
		}
	}
}
