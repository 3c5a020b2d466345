package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBadFlagsExitNonZero is the flag-validation audit: every invalid flag
// combination must exit 2 with a message on stderr — never a panic, never a
// silent success.
func TestBadFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"removed no-cache flag", []string{"-no-cache"}, "flag provided but not defined: -no-cache"},
		{"removed store flag", []string{"-store-dir", "/tmp/results", "-store", "pack"}, "flag provided but not defined: -store"},
		{"empty addr", []string{"-addr", ""}, "-addr"},
		{"negative job workers", []string{"-job-workers", "-1"}, "-job-workers"},
		{"negative sim workers", []string{"-sim-workers", "-2"}, "-sim-workers"},
		{"negative queue", []string{"-queue", "-3"}, "-queue"},
		{"negative max jobs", []string{"-max-jobs", "-4"}, "-max-jobs"},
		{"zero drain timeout", []string{"-drain-timeout", "0s"}, "-drain-timeout"},
		{"negative drain timeout", []string{"-drain-timeout", "-5s"}, "-drain-timeout"},
		{"malformed drain timeout", []string{"-drain-timeout", "soon"}, "invalid value"},
		{"zero max wait", []string{"-max-wait", "0s"}, "-max-wait"},
		{"negative max wait", []string{"-max-wait", "-10s"}, "-max-wait"},
		{"negative campaign streams", []string{"-max-campaign-streams", "-1"}, "-max-campaign-streams"},
		{"coordinator without workers", []string{"-coordinator"}, "-coordinator requires -workers"},
		{"workers without coordinator", []string{"-workers", "http://w1:8491"}, "-workers requires -coordinator"},
		{"workers-file without coordinator", []string{"-workers-file", "/tmp/workers.txt"}, "-workers-file requires -coordinator"},
		{"workers and workers-file", []string{"-coordinator", "-workers", "http://w1", "-workers-file", "/tmp/w.txt"}, "mutually exclusive"},
		{"workers-reload without coordinator", []string{"-workers-reload", "10s"}, "-workers-reload requires -coordinator"},
		{"negative workers-reload", []string{"-coordinator", "-workers-file", "/tmp/w.txt", "-workers-reload", "-1s"}, "-workers-reload"},
		{"negative quota-rate", []string{"-quota-rate", "-1"}, "-quota-rate"},
		{"negative quota-burst", []string{"-quota-burst", "-1"}, "-quota-burst"},
		{"quota-burst without quota-rate", []string{"-quota-burst", "5"}, "-quota-burst requires -quota-rate"},
		{"negative campaign-high", []string{"-campaign-high", "-1"}, "-campaign-high"},
		{"negative campaign-low", []string{"-campaign-low", "-1"}, "-campaign-low"},
		{"campaign-low without campaign-high", []string{"-campaign-low", "2"}, "-campaign-low requires -campaign-high"},
		{"campaign-low above high", []string{"-campaign-high", "2", "-campaign-low", "3"}, "below -campaign-high"},
		{"lease-ttl without coordinator", []string{"-lease-ttl", "10s"}, "require -coordinator"},
		{"max-attempts without coordinator", []string{"-max-attempts", "2"}, "require -coordinator"},
		{"negative lease-ttl", []string{"-coordinator", "-workers", "http://w1", "-lease-ttl", "-1s"}, "-lease-ttl"},
		{"negative max-attempts", []string{"-coordinator", "-workers", "http://w1", "-max-attempts", "-1"}, "-max-attempts"},
		{"workers all blank", []string{"-coordinator", "-workers", " , ,"}, "no usable URLs"},
		{"chaos-worker without chaos-file", []string{"-chaos-worker", "w0"}, "-chaos-worker requires -chaos-file"},
		{"missing chaos file", []string{"-chaos-file", "/nonexistent/chaos.json"}, "chaos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := appMain(context.Background(), tc.args, &out, &errb)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q missing %q", errb.String(), tc.want)
			}
		})
	}
}

// TestChaosFileArming covers the -chaos-file paths the flag audit can't:
// a schedule that parses but fails validation exits 2, and a valid schedule
// arms with a loud warning on stderr.
func TestChaosFileArming(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"faults":[{"kind":"meteor","at":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := appMain(context.Background(), []string{"-chaos-file", bad}, &out, &errb); code != 2 {
		t.Fatalf("bad schedule exit = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "unknown kind") {
		t.Errorf("stderr %q missing validation error", errb.String())
	}

	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"faults":[{"worker":"w1","kind":"kill","at":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // boot, arm, drain immediately
	out.Reset()
	errb.Reset()
	code := appMain(ctx, []string{"-addr", "127.0.0.1:0", "-chaos-file", good, "-chaos-worker", "w1"}, &out, &errb)
	if code != 0 {
		t.Fatalf("armed daemon exit = %d, want 0 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "chaos fault injection armed") {
		t.Errorf("stderr %q missing arming warning", errb.String())
	}
}

func TestHelpExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := appMain(context.Background(), []string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exit = %d, want 0", code)
	}
	if !strings.Contains(errb.String(), "-drain-timeout") {
		t.Errorf("usage text missing flags:\n%s", errb.String())
	}
}

func TestListenFailureExitsOne(t *testing.T) {
	var out, errb bytes.Buffer
	code := appMain(context.Background(), []string{"-addr", "256.0.0.1:99999"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if errb.Len() == 0 {
		t.Error("listen failure left stderr empty")
	}
}

// syncBuffer makes the stdout the daemon goroutine writes into safe to read
// from the test goroutine.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// TestServeSubmitAndGracefulShutdown boots the daemon on an ephemeral port,
// drives one experiment job over HTTP, then cancels the context (the SIGTERM
// path) and requires a clean exit 0.
func TestServeSubmitAndGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	var errb bytes.Buffer
	codeCh := make(chan int, 1)
	go func() {
		codeCh <- appMain(ctx, []string{"-addr", "127.0.0.1:0", "-job-workers", "1", "-drain-timeout", "10s"}, &out, &errb)
	}()

	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address; stdout: %s stderr: %s", out.String(), errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" {
		t.Fatalf("health = %q", health.Status)
	}

	resp, err = http.Post(base+"/v1/experiments/table1", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var jobView struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jobView); err != nil {
		t.Fatalf("submit decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || jobView.ID == "" {
		t.Fatalf("submit: status %d id %q", resp.StatusCode, jobView.ID)
	}

	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=20s", base, jobView.ID))
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	var done struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		t.Fatalf("wait decode: %v", err)
	}
	resp.Body.Close()
	if done.Status != "done" || len(done.Result) == 0 {
		t.Fatalf("job = %+v", done)
	}

	cancel() // SIGTERM equivalent
	select {
	case code := <-codeCh:
		if code != 0 {
			t.Fatalf("graceful shutdown exit = %d, want 0 (stderr: %s)", code, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit within the drain window")
	}
	if !strings.Contains(out.String(), "stopped") {
		t.Errorf("shutdown log missing: %s", out.String())
	}
}
