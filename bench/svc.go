package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/service"
	"dspatch/internal/sweep"
)

// daemon is an in-process dspatchd on a loopback port, with its run cache and
// result store (plus campaign journals) under one directory.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	served chan error
}

// startDaemon starts a daemon with its run cache under dir and, when
// durable, its result store and campaign journals too.
func startDaemon(dir string, durable bool) (*daemon, error) {
	cfg := service.Config{JobWorkers: 2, CacheDir: filepath.Join(dir, "cache")}
	if durable {
		cfg.StoreDir, cfg.StoreBackend = filepath.Join(dir, "store"), "dir"
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(context.Background())
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener, waits for the serve loop to return, and drains
// the worker pool.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.srv.Drain(ctx)
}

// svcEnv owns the daemon and scratch directory of a service workload.
type svcEnv struct {
	durable bool // the daemon keeps a result store and campaign journals
	dir     string
	d       *daemon
}

// start begins a fresh environment: a new scratch directory and a daemon
// serving from it.
func (e *svcEnv) start() error {
	dir, err := os.MkdirTemp("", "dspatch-bench-*")
	if err != nil {
		return err
	}
	e.dir = dir
	return e.restart()
}

// restart replaces the daemon with a new one on the same directory, as a
// daemon restart would: the run cache and store survive, the process memo is
// emptied.
func (e *svcEnv) restart() error {
	if e.d != nil {
		e.d.stop()
		e.d = nil
	}
	experiments.ResetMemo()
	d, err := startDaemon(e.dir, e.durable)
	if err != nil {
		return err
	}
	e.d = d
	return nil
}

// close stops the daemon, points the engine's run cache away from the
// directory and removes it.
func (e *svcEnv) close() {
	if e.d != nil {
		e.d.stop()
		e.d = nil
	}
	experiments.SetCacheDir("")
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// client is one closed-loop service client on a single connection.
type client struct {
	*service.Client
	tr *http.Transport
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c := service.NewClient(url)
	c.HTTPClient = &http.Client{Transport: tr}
	c.Retry = service.DefaultRetryPolicy()
	return &client{Client: c, tr: tr}
}

// followWait is the ?wait= window a client follows a campaign stream with.
const followWait = 30 * time.Second

var (
	pointPrefix   = []byte(`{"type":"point"`)
	summaryPrefix = []byte(`{"type":"summary"`)
)

// campaignRun is one campaign as a client saw it.
type campaignRun struct {
	index     int // position in the campaign pool
	id        string
	start     time.Time // just before submission
	submitted time.Time // submission acknowledged
	end       time.Time // summary record arrived
	latMs     []float64 // per point record: submission → arrival at the client
	points    [][]byte  // raw point records in stream order
	summary   []byte
	err       error
}

// run submits camp and follows its NDJSON stream to the summary record.
func (c *client) run(ctx context.Context, index int, camp sweep.Campaign) campaignRun {
	r := campaignRun{index: index, start: time.Now()}
	jv, err := c.SubmitCampaign(ctx, camp)
	if err != nil {
		r.err = fmt.Errorf("submit: %w", err)
		return r
	}
	r.id, r.submitted = jv.ID, time.Now()
	seen := 0
	for r.summary == nil {
		if err := c.follow(ctx, &r, &seen); err != nil {
			r.err = err
			return r
		}
		if r.summary != nil {
			break
		}
		// The follow window closed first, or the job ended without a summary.
		jv, err := c.Job(ctx, r.id)
		if err != nil {
			r.err = err
			return r
		}
		if jv.Status.Terminal() {
			r.err = fmt.Errorf("campaign %s ended %s without a summary: %s", r.id, jv.Status, jv.Error)
			return r
		}
	}
	return r
}

// follow reads one stream response. A re-opened stream starts again from the
// header, so the first seen records are skipped.
func (c *client) follow(ctx context.Context, r *campaignRun, seen *int) error {
	body, err := c.CampaignStream(ctx, r.id, followWait)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	defer body.Close()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for n := 1; sc.Scan(); n++ {
		if n <= *seen {
			continue
		}
		*seen = n
		now := time.Now()
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, pointPrefix):
			r.latMs = append(r.latMs, ms(now.Sub(r.start)))
			r.points = append(r.points, append([]byte(nil), line...))
		case bytes.HasPrefix(line, summaryPrefix):
			r.summary = append([]byte(nil), line...)
			r.end = now
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	return nil
}

// drive runs pool through two closed-loop clients — client c takes pool
// positions c, c+2, … — and returns the runs in pool order.
func drive(ctx context.Context, url string, pool []sweep.Campaign) []campaignRun {
	runs := make([]campaignRun, len(pool))
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.tr.CloseIdleConnections()
			for k := c; k < len(pool); k += 2 {
				runs[k] = cl.run(ctx, k, pool[k])
			}
		}(c)
	}
	wg.Wait()
	return runs
}

// svcRound runs one round of campaigns — pool positions off, off+1, … —
// through the daemon's two clients and adds it to t. The host-speed probe runs
// before the round and the checks after it, both outside the measured time;
// the previous round's checks saw every one of its jobs done, so the daemon
// is idle while the probe runs.
func svcRound(ctx context.Context, o *outcome, env *svcEnv, hs *hostSpeed, t *timing, campaigns []sweep.Campaign, off, refs int) []campaignRun {
	hs.maybeSample()
	start := time.Now()
	runs := drive(ctx, env.d.url, campaigns)
	t.wall += time.Since(start)
	for i := range runs {
		runs[i].index += off
		t.latMs = append(t.latMs, runs[i].latMs...)
		t.refs += len(runs[i].latMs) * refs
	}
	checkRuns(ctx, o, env.d.url, runs)
	return runs
}

// campaignStreams lists the streams a pool of single-lane campaigns replays.
func campaignStreams(pool []sweep.Campaign) ([]stream, error) {
	var jobs []experiments.Job
	for _, c := range pool {
		_, pts, err := c.Expand()
		if err != nil {
			return nil, err
		}
		for i := range pts {
			jobs = append(jobs, pts[i].Job())
		}
	}
	return jobStreams(jobs), nil
}

// checkRuns verifies every campaign of a round, outside the measured time: no
// HTTP error survived the client's retry policy, every point arrived and is
// valid, the summary accounts for every point with none dropped, and the job
// finished as done. Each point is one operation.
func checkRuns(ctx context.Context, o *outcome, url string, runs []campaignRun) {
	cl := newClient(url)
	defer cl.tr.CloseIdleConnections()
	for _, r := range runs {
		var sum sweep.Summary
		ok := r.err == nil && json.Unmarshal(r.summary, &sum) == nil &&
			sum.Points == pointsPerCampaign && sum.Dropped == 0 && len(sum.DroppedPoints) == 0
		if ok {
			jv, err := cl.Job(ctx, r.id)
			ok = err == nil && jv.Status == service.StatusDone
		}
		for i := 0; i < pointsPerCampaign; i++ {
			valid := ok && i < len(r.points) && validPoint(r.points[i])
			o.expect(valid, "campaign %d (%s) point %d: missing, invalid or not done (err %v)", r.index, r.id, i, r.err)
		}
	}
}

func validPoint(raw []byte) bool {
	var p sweep.PointRecord
	if json.Unmarshal(raw, &p) != nil || len(p.Metrics.IPC) == 0 || p.Metrics.Cycles == 0 {
		return false
	}
	for _, x := range append(append([]float64(nil), p.Metrics.IPC...), p.Speedup...) {
		if !(x > 0) || !finite(x) {
			return false
		}
	}
	m := p.Metrics
	return p.Baseline == (len(p.Speedup) == 0) && finite(m.Coverage, m.MispredRate, m.Accuracy, m.AvgBandwidthGBps)
}

// digestCampaigns is how many of the pool's first campaigns a service
// workload's digest covers: svc-warm's whole pool, which svc-cold always runs
// first, so the two digests of one seed agree.
func digestCampaigns(cfg config) int { return cfg.size.warmCampaigns }

// svcDigest hashes the point records of the pool's first n campaigns in pool
// order.
func svcDigest(runs []campaignRun, n int) (string, error) {
	d := newDigest()
	seen := 0
	for _, r := range runs {
		if r.index >= n {
			continue
		}
		seen++
		for _, raw := range r.points {
			var p sweep.PointRecord
			if err := json.Unmarshal(raw, &p); err != nil {
				return "", err
			}
			m := p.Metrics
			d.metrics(m.IPC, m.Cycles, m.Coverage, m.MispredRate, m.Accuracy, m.AvgBandwidthGBps)
		}
	}
	if seen != n {
		return "", fmt.Errorf("digest needs the pool's first %d campaigns, %d ran", n, seen)
	}
	return d.String(), nil
}

// checkDirect re-runs campaign camp with sweep.Engine.Run directly — no
// daemon, no HTTP, no caches — and expects the point records the client
// received to be byte-identical.
func checkDirect(ctx context.Context, o *outcome, camp sweep.Campaign, got [][]byte) error {
	experiments.ResetMemo()
	if err := experiments.SetCacheDir(""); err != nil {
		return err
	}
	var want [][]byte
	_, err := (&sweep.Engine{Workers: 1}).Run(ctx, camp, func(line json.RawMessage) error {
		if bytes.HasPrefix(line, pointPrefix) {
			want = append(want, append([]byte(nil), line...))
		}
		return nil
	})
	if err != nil {
		return err
	}
	same := len(want) == len(got)
	for i := 0; same && i < len(want); i++ {
		same = bytes.Equal(want[i], got[i])
	}
	o.expect(same, "campaign %s: daemon point records differ from a direct sweep.Engine.Run", camp.Name)
	return nil
}

// coldPool returns svc-cold's campaign pool: enough for the minimum point
// count, and for the timed phase at up to 1200 points per second.
func coldPool(cfg config) ([]sweep.Campaign, error) {
	all, _, err := roster()
	if err != nil {
		return nil, err
	}
	n := max(cfg.size.svcMinPoints, int(cfg.seconds.Seconds()*1200))/pointsPerCampaign + 1
	n = max(n, digestCampaigns(cfg))
	return campaignPool(all, n, cfg.size.svcRefs, cfg.seed), nil
}

func runSvcCold(ctx context.Context, cfg config) (*outcome, error) {
	pool, err := coldPool(cfg)
	if err != nil {
		return nil, err
	}
	streams, err := campaignStreams(pool)
	if err != nil {
		return nil, err
	}
	env := svcEnv{durable: true}
	defer env.close()
	hs, err := newHostSpeed(ctx)
	if err != nil {
		return nil, err
	}
	defer hs.close()
	setup, err := setupRuns(cfg.size.setupReps, hs, func() error {
		materialize(streams)
		return env.start()
	}, env.close)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	var t timing
	var kept []campaignRun // the campaigns the digest and the direct check read
	off := 0
	for ; off < len(pool); off += coldRound {
		if off >= digestCampaigns(cfg) && t.wall >= cfg.seconds && len(t.latMs) >= cfg.size.svcMinPoints {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, r := range svcRound(ctx, o, &env, hs, &t, pool[off:min(off+coldRound, len(pool))], off, cfg.size.svcRefs) {
			if r.index < digestCampaigns(cfg) {
				kept = append(kept, r)
			}
		}
	}
	hs.sample()
	if off >= len(pool) {
		cfg.logf("  note: the campaign pool ran out after %.2f s", t.wall.Seconds())
	}
	cfg.logf("  %d cold campaigns through the daemon, %.2f s measured", min(off, len(pool)), t.wall.Seconds())
	if err := o.setEndToEnd(setup, t, hs); err != nil {
		return nil, err
	}
	env.close()
	return o, finishSvc(ctx, o, pool[0], kept, digestCampaigns(cfg))
}

// coldRound is how many campaigns svc-cold's clients run between probes: one
// round of the pool, so each client gets one campaign on every machine.
const coldRound = poolRound

// finishSvc digests the runs of the pool's first n campaigns and re-runs the
// first campaign directly.
func finishSvc(ctx context.Context, o *outcome, first sweep.Campaign, runs []campaignRun, n int) error {
	var err error
	if o.digest, err = svcDigest(runs, n); err != nil {
		return err
	}
	if len(runs) == 0 || runs[0].index != 0 {
		return fmt.Errorf("the pool's first campaign never ran")
	}
	return checkDirect(ctx, o, first, runs[0].points)
}

// seedPass runs pool once through the daemon, so its results sit in the
// daemon directory's run cache.
func seedPass(ctx context.Context, env *svcEnv, pool []sweep.Campaign) error {
	for _, r := range drive(ctx, env.d.url, pool) {
		if r.err != nil {
			return fmt.Errorf("seeding campaign %d: %w", r.index, r.err)
		}
	}
	return nil
}

func runSvcWarm(ctx context.Context, cfg config) (*outcome, error) {
	all, _, err := roster()
	if err != nil {
		return nil, err
	}
	pool := campaignPool(all, cfg.size.warmCampaigns, cfg.size.svcRefs, cfg.seed)
	streams, err := campaignStreams(pool)
	if err != nil {
		return nil, err
	}
	// No durable layer: with it, every warm point would also write a store
	// entry and fsync a journal frame, and the read path would measure the
	// disk's write latency instead.
	env := svcEnv{durable: false}
	defer env.close()
	hs, err := newHostSpeed(ctx)
	if err != nil {
		return nil, err
	}
	defer hs.close()
	setup, err := setupRuns(cfg.size.setupReps, hs, func() error {
		materialize(streams)
		if err := env.start(); err != nil {
			return err
		}
		if err := seedPass(ctx, &env, pool); err != nil {
			return err
		}
		return env.restart()
	}, env.close)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	before := experiments.EngineCounters()
	var t timing
	var last []campaignRun
	rounds := 0
	for ; rounds == 0 || t.wall < cfg.seconds; rounds++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		experiments.ResetMemo()
		last = svcRound(ctx, o, &env, hs, &t, pool, 0, cfg.size.svcRefs)
	}
	hs.sample()
	sims := experiments.EngineCounters().Sims - before.Sims
	cfg.logf("  %d warm rounds of %d campaigns, %.2f s measured", rounds, len(pool), t.wall.Seconds())
	if err := o.setEndToEnd(setup, t, hs); err != nil {
		return nil, err
	}
	o.expect(sims == 0, "warm rounds simulated %d runs; every point should be a disk-cache read", sims)
	env.close()
	return o, finishSvc(ctx, o, pool[0], last, digestCampaigns(cfg))
}
