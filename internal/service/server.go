// Package service exposes the experiment engine as a long-running
// simulation-as-a-service daemon: a job-oriented HTTP API over the same
// process-wide engine the dspatch library and CLI use, so every run a client
// submits shares the in-process memo, the materialized replay-trace store
// and the persistent -cache-dir with every other front end. Repeated
// requests are answered from cache without re-simulating, and results are
// deterministic: a job submitted over HTTP returns exactly what the
// equivalent library call returns.
//
// API (all request/response bodies are JSON):
//
//	POST   /v1/runs              submit one simulation (RunSpec) -> JobView
//	POST   /v1/experiments/{id}  submit a paper table/figure (ScaleSpec) -> JobView
//	POST   /v1/campaigns         submit a declarative parameter sweep (sweep.Campaign) -> JobView
//	GET    /v1/campaigns/{id}    stream the campaign's NDJSON records; ?wait=10s follows live
//	POST   /v1/scenarios         register scenario specs (ScenarioSpec or [ScenarioSpec]) -> roster entries
//	GET    /v1/jobs              list jobs (newest last)
//	GET    /v1/jobs/{id}         fetch one job; ?wait=10s long-polls until terminal
//	DELETE /v1/jobs/{id}         cancel a queued or running job (campaigns included)
//	GET    /v1/experiments       the experiment registry
//	GET    /v1/workloads         the workload roster (name, category, source: builtin/spec/imported)
//	GET    /v1/prefetchers       selectable L2 prefetchers
//	GET    /v1/cache             persistent run-cache location and size
//	GET    /healthz              liveness + job/queue gauges
//	GET    /livez                process liveness (always 200 while serving)
//	GET    /readyz               readiness: 503 the moment draining begins
//	GET    /metrics              Prometheus text format counters
//
// Jobs flow through a sharded worker pool: submissions hash to one of
// JobWorkers bounded queues, so identical specs land on the same worker and
// the second is served from the memo the first just filled. Each job runs
// under its own context; DELETE cancels it mid-simulation, and draining the
// server (SIGTERM in dspatchd) stops intake, lets running jobs finish within
// the drain timeout, then cancels stragglers.
//
// With Config.Fleet set the daemon is a campaign coordinator: campaign
// points are deduplicated into runs, dispatched across worker daemons under
// leases, retried elsewhere on any failure (worker error, 503 shed, lease
// expiry, dead worker), and merged into the same byte-identical NDJSON
// stream a single-node run emits. See coordinator.go and FleetConfig.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/prefstats"
	"dspatch/internal/sim"
	"dspatch/internal/sweep"
	"dspatch/internal/trace"
)

// Config parameterizes a Server. The zero value is usable: every field has
// a sensible default.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8491").
	Addr string
	// JobWorkers is the number of worker goroutines, each owning one shard
	// of the job queue (default 2).
	JobWorkers int
	// SimWorkers is the per-job simulation parallelism handed to the
	// experiment engine (default GOMAXPROCS/JobWorkers, at least 1).
	SimWorkers int
	// QueueDepth bounds each worker shard's queue (default 64). A
	// submission to a full shard is rejected with 503.
	QueueDepth int
	// MaxJobs bounds retained job records; the oldest terminal jobs are
	// evicted past it (default 4096).
	MaxJobs int
	// CacheDir, when non-empty, enables the engine's persistent run cache.
	CacheDir string
	// DrainTimeout bounds how long Drain waits for running jobs before
	// canceling them (default 30s).
	DrainTimeout time.Duration
	// MaxWait caps the ?wait= long-poll of GET /v1/jobs/{id} and the live
	// follow window of GET /v1/campaigns/{id} (default 30s). A request
	// asking for more is clamped, never rejected, so a handler goroutine is
	// pinned for at most MaxWait per request.
	MaxWait time.Duration
	// MaxCampaignStreams bounds how many finished campaigns keep their full
	// NDJSON record stream in memory (default 64). Older terminal campaigns'
	// streams are evicted — GET /v1/campaigns/{id} answers 410 and the
	// summary stays on the job record — so campaign memory is O(streams
	// retained), not O(jobs retained). Only terminal campaigns count against
	// the cap and only they are evicted: a queued, running, or resumable
	// (journaled but unsealed) campaign is never evicted out from under a
	// follower, no matter how many campaigns finish around it.
	MaxCampaignStreams int
	// StoreDir, when non-empty, enables the durable layer: a ResultStore at
	// this directory plus a write-ahead campaign journal per campaign under
	// StoreDir/journals. Unsealed journals found at startup are resumed —
	// the campaign is re-created under its original job ID, journaled
	// completions replay from the store with zero dispatches, and only the
	// unfinished tail re-runs. When Fleet is set and Fleet.StoreDir is the
	// only one given, it is adopted as StoreDir.
	StoreDir string
	// StoreBackend selects the ResultStore implementation under StoreDir:
	// "dir" (default; one content-addressed JSON file per result, shareable
	// between processes) or "pack" (a single append-only pack file owned by
	// this daemon).
	StoreBackend string
	// QuotaRate, when > 0, enables per-client token-bucket admission
	// control: each client (keyed by the X-Dspatch-Client header; requests
	// without one share an anonymous bucket) accrues QuotaRate submission
	// tokens per second up to QuotaBurst. A dry bucket sheds with 503 +
	// Retry-After.
	QuotaRate float64
	// QuotaBurst is the token-bucket capacity (default 8 when QuotaRate is
	// set).
	QuotaBurst int
	// CampaignHighWater, when > 0, sheds new campaign submissions with 503 +
	// Retry-After once the active (queued or running) campaign count reaches
	// it, until the count falls back to CampaignLowWater.
	CampaignHighWater int
	// CampaignLowWater re-opens campaign admission after a high-watermark
	// shed (default CampaignHighWater/2).
	CampaignLowWater int
	// CrashAfterPoints, when > 0, hard-crashes the daemon (via CrashFn)
	// immediately after the Nth campaign point record is emitted across all
	// campaigns — the chaos harness's coordinator crash-kill. The crash
	// fires after the point was journaled, so a restart resumes past it.
	CrashAfterPoints int
	// CrashFn is what CrashAfterPoints calls (default os.Exit(137), the
	// exit code of a SIGKILLed process).
	CrashFn func()
	// Fleet, when non-nil, makes this daemon a coordinator: campaigns
	// execute across the configured worker daemons instead of the local
	// engine. Runs and experiments still execute locally.
	Fleet *FleetConfig
	// Middleware, when set, wraps the daemon's handler in ListenAndServe
	// (fault injection, auth, logging). Handler() returns the bare mux.
	Middleware func(http.Handler) http.Handler
	// Logf, when set, receives one-line operational messages.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8491"
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.SimWorkers <= 0 {
		c.SimWorkers = runtime.GOMAXPROCS(0) / c.JobWorkers
		if c.SimWorkers < 1 {
			c.SimWorkers = 1
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 30 * time.Second
	}
	if c.MaxCampaignStreams <= 0 {
		c.MaxCampaignStreams = 64
	}
	if c.QuotaRate > 0 && c.QuotaBurst <= 0 {
		c.QuotaBurst = 8
	}
	if c.CampaignHighWater > 0 && c.CampaignLowWater <= 0 {
		c.CampaignLowWater = c.CampaignHighWater / 2
	}
	if c.CrashFn == nil {
		c.CrashFn = func() { os.Exit(137) }
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued   JobStatus = "queued"
	StatusRunning  JobStatus = "running"
	StatusDone     JobStatus = "done"
	StatusFailed   JobStatus = "failed"
	StatusCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

const (
	kindRun        = "run"
	kindExperiment = "experiment"
	kindCampaign   = "campaign"
)

// campaignFeed accumulates a running campaign's NDJSON records and lets
// streaming readers block for the next append. changed is closed and
// replaced on every append (a broadcast).
type campaignFeed struct {
	mu      sync.Mutex
	recs    []json.RawMessage
	changed chan struct{}
	evicted bool
}

func newCampaignFeed() *campaignFeed {
	return &campaignFeed{changed: make(chan struct{})}
}

func (f *campaignFeed) append(rec json.RawMessage) {
	f.mu.Lock()
	f.recs = append(f.recs, rec)
	close(f.changed)
	f.changed = make(chan struct{})
	f.mu.Unlock()
}

// evict drops the record stream (the retention cap was passed). Readers
// mid-stream see the feed end; new readers are told the stream is gone.
func (f *campaignFeed) evict() {
	f.mu.Lock()
	f.recs = nil
	f.evicted = true
	f.mu.Unlock()
}

func (f *campaignFeed) isEvicted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.evicted
}

// next returns the records past from, plus a channel that closes on the next
// append (only meaningful when no new records were returned).
func (f *campaignFeed) next(from int) ([]json.RawMessage, <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if from > len(f.recs) {
		from = len(f.recs)
	}
	return f.recs[from:], f.changed
}

// job is one unit of work and its record. Mutable state is guarded by mu;
// done closes exactly once when the job reaches a terminal status.
type job struct {
	id    string
	kind  string
	run   *RunSpec        // kindRun
	expID string          // kindExperiment
	scale *ScaleSpec      // kindExperiment
	camp  *sweep.Campaign // kindCampaign
	feed  *campaignFeed   // kindCampaign
	// resumePath, when non-empty, is the unsealed journal this campaign was
	// resurrected from at startup: execute reopens it (replaying its state)
	// instead of creating a fresh one.
	resumePath string

	mu     sync.Mutex
	status JobStatus
	errMsg string
	result json.RawMessage
	// resultStats is the result with per-prefetcher telemetry included;
	// non-nil only when the job collected stats. GET /v1/jobs/{id}?stats=1
	// serves it, every other path serves the lean result.
	resultStats json.RawMessage
	text        string
	submitted   time.Time
	started     time.Time
	finished    time.Time
	cancel      context.CancelFunc // set while running
	// finishing is set once a path has claimed the job's terminal
	// transition (see Server.finish); the status still reads queued or
	// running until the transition is published.
	finishing bool

	cancelRequested atomic.Bool
	done            chan struct{}
}

// JobView is the wire form of a job.
type JobView struct {
	ID         string          `json:"id"`
	Kind       string          `json:"kind"`
	Status     JobStatus       `json:"status"`
	Experiment string          `json:"experiment,omitempty"`
	Run        *RunSpec        `json:"run,omitempty"`
	Scale      *ScaleSpec      `json:"scale,omitempty"`
	Campaign   *sweep.Campaign `json:"campaign,omitempty"`
	Error      string          `json:"error,omitempty"`
	Submitted  time.Time       `json:"submitted_at"`
	Started    *time.Time      `json:"started_at,omitempty"`
	Finished   *time.Time      `json:"finished_at,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	// Text is the experiment's rendered table, exactly as cmd/dspatchsim
	// prints it (empty for raw runs).
	Text string `json:"text,omitempty"`
}

func (j *job) view(includeResult bool) JobView { return j.viewStats(includeResult, false) }

// viewStats is view with an opt-in for the stats-bearing result form:
// includeStats swaps in resultStats when the job collected telemetry.
func (j *job) viewStats(includeResult, includeStats bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.id,
		Kind:       j.kind,
		Status:     j.status,
		Experiment: j.expID,
		Run:        j.run,
		Scale:      j.scale,
		Campaign:   j.camp,
		Error:      j.errMsg,
		Submitted:  j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	if includeResult {
		v.Result = j.result
		if includeStats && j.resultStats != nil {
			v.Result = j.resultStats
		}
		v.Text = j.text
	}
	return v
}

// claimRunning transitions queued -> running; false means the job was
// already canceled (or otherwise finished) before a worker reached it.
func (j *job) claimRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued || j.finishing {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	j.cancel = cancel
	return true
}

// finish moves j from status from to the terminal status st, reporting false
// if j was not in from or another path claimed the transition first (a
// cancel raced with completion). The outcome counter moves and the campaign
// stream retention runs before the status is published and done closes, so
// a caller whose Wait returns never reads a stream that is about to be
// evicted. Lock order: j.mu is released before retireCampaign takes s.mu.
func (s *Server) finish(j *job, from, st JobStatus, result, resultStats json.RawMessage, text, errMsg string) bool {
	j.mu.Lock()
	claimed := j.status == from && !j.finishing
	if claimed {
		j.finishing = true
	}
	j.mu.Unlock()
	if !claimed {
		return false
	}
	switch st {
	case StatusDone:
		s.completed.Add(1)
	case StatusFailed:
		s.failed.Add(1)
	default:
		s.canceled.Add(1)
	}
	s.retireCampaign(j)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = st
	j.result = result
	j.resultStats = resultStats
	j.text = text
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
	return true
}

// Server is the daemon: an HTTP handler plus the worker pool behind it.
// Create with New, serve via Handler or ListenAndServe, stop with Drain.
type Server struct {
	cfg   Config
	fleet *FleetConfig // normalized Config.Fleet; nil on non-coordinators
	mux   *http.ServeMux

	// Durable layer (nil/empty without Config.StoreDir).
	store      experiments.ResultStore
	journalDir string

	quotas       *quotaTable // guarded by mu; nil when quotas are off
	campShedding bool        // guarded by mu; campaign watermark hysteresis

	baseCtx  context.Context // canceled to hard-stop running jobs
	hardStop context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []*job // submission order, for listing and eviction
	campDone []*job // terminal campaigns still holding their record stream
	seq      int
	draining bool
	shards   []chan *job

	drainCh chan struct{} // closed when draining starts; releases long-polls
	wg      sync.WaitGroup
	start   time.Time

	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64
	rejected  atomic.Uint64
	running   atomic.Int64

	// Fleet telemetry (zero on non-coordinators).
	pointsRedispatched atomic.Uint64
	workersEjected     atomic.Uint64
	leasesExpired      atomic.Uint64

	// Admission + durability telemetry.
	quotaRejected    atomic.Uint64
	campaignsShed    atomic.Uint64
	campaignsResumed atomic.Uint64
	activeCampaigns  atomic.Int64
	pointsEmitted    atomic.Uint64 // across campaigns; drives CrashAfterPoints

	// Per-prefetcher telemetry aggregated across every stats-collecting job
	// this daemon finished, exported on /metrics as labeled series.
	prefMu  sync.Mutex
	prefAgg []sim.PrefetcherStats
}

// recordPrefStats folds one finished job's per-prefetcher telemetry into the
// daemon-lifetime aggregate behind /metrics.
func (s *Server) recordPrefStats(stats []sim.PrefetcherStats) {
	if len(stats) == 0 {
		return
	}
	s.prefMu.Lock()
	s.prefAgg = prefstats.Merge(s.prefAgg, stats)
	s.prefMu.Unlock()
}

// New builds a Server and starts its worker pool (no listener yet: mount
// Handler yourself or call ListenAndServe). When cfg.CacheDir is set the
// process-wide engine's persistent cache is pointed at it.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.CacheDir != "" {
		if err := experiments.SetCacheDir(cfg.CacheDir); err != nil {
			return nil, err
		}
	}
	var fleet *FleetConfig
	if cfg.Fleet != nil {
		if len(cfg.Fleet.Workers) == 0 && cfg.Fleet.WorkersFile == "" {
			return nil, fmt.Errorf("service: fleet config needs worker URLs or a workers file")
		}
		fc := cfg.Fleet.withDefaults()
		fleet = &fc
		if cfg.StoreDir == "" {
			// The fleet's shared store doubles as the durable layer's root.
			cfg.StoreDir = fc.StoreDir
		}
	}
	store, journalDir, err := openStore(cfg)
	if err != nil {
		return nil, err
	}
	var quotas *quotaTable
	if cfg.QuotaRate > 0 {
		quotas = newQuotaTable(cfg.QuotaRate, cfg.QuotaBurst)
	}
	baseCtx, hardStop := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		fleet:      fleet,
		store:      store,
		journalDir: journalDir,
		quotas:     quotas,
		baseCtx:    baseCtx,
		hardStop:   hardStop,
		jobs:       map[string]*job{},
		shards:     make([]chan *job, cfg.JobWorkers),
		drainCh:    make(chan struct{}),
		start:      time.Now(),
	}
	for i := range s.shards {
		s.shards[i] = make(chan *job, cfg.QueueDepth)
		s.wg.Add(1)
		go s.worker(s.shards[i])
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /livez", s.handleLivez)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /v1/experiments/{id}", s.handleSubmitExperiment)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmitCampaign)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignStream)
	s.mux.HandleFunc("POST /v1/scenarios", s.handleRegisterScenarios)
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/prefetchers", s.handlePrefetchers)
	s.mux.HandleFunc("GET /v1/cache", s.handleCache)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.resumeJournals()
	return s, nil
}

// openStore builds the durable layer from Config: a ResultStore at StoreDir
// in the selected backend, plus the campaign-journal directory beneath it.
func openStore(cfg Config) (experiments.ResultStore, string, error) {
	if cfg.StoreDir == "" {
		if cfg.StoreBackend != "" && cfg.StoreBackend != "dir" {
			return nil, "", fmt.Errorf("service: store backend %q needs a store dir", cfg.StoreBackend)
		}
		return nil, "", nil
	}
	var store experiments.ResultStore
	switch cfg.StoreBackend {
	case "", "dir":
		ds, err := experiments.NewDirStore(cfg.StoreDir)
		if err != nil {
			return nil, "", fmt.Errorf("service: %w", err)
		}
		store = ds
	case "pack":
		if err := os.MkdirAll(cfg.StoreDir, 0o755); err != nil {
			return nil, "", fmt.Errorf("service: store dir: %w", err)
		}
		ps, err := experiments.OpenPackStore(filepath.Join(cfg.StoreDir, "results.pack"))
		if err != nil {
			return nil, "", fmt.Errorf("service: %w", err)
		}
		store = ps
	default:
		return nil, "", fmt.Errorf("service: unknown store backend %q (want dir or pack)", cfg.StoreBackend)
	}
	journalDir := filepath.Join(cfg.StoreDir, "journals")
	if err := os.MkdirAll(journalDir, 0o755); err != nil {
		return nil, "", fmt.Errorf("service: journal dir: %w", err)
	}
	return store, journalDir, nil
}

// resumeJournals scans the journal directory at startup and resurrects
// every unsealed campaign under its original job ID: the job re-enters the
// queue, and when a worker picks it up the journal replays — completions
// rehydrate from the store with zero dispatches, only the unfinished tail
// runs, and the NDJSON stream (rebuilt from the start) is byte-identical to
// an uninterrupted run. Sealed journals (campaigns that finished before the
// restart) are reaped. Corrupt files are skipped with a log line, never a
// startup failure.
func (s *Server) resumeJournals() {
	if s.journalDir == "" {
		return
	}
	paths, err := filepath.Glob(filepath.Join(s.journalDir, "*.journal"))
	if err != nil {
		return
	}
	sort.Strings(paths)
	for _, path := range paths {
		st, err := sweep.ReadJournalState(path)
		if err != nil {
			s.cfg.Logf("journal %s unreadable, skipping: %v", filepath.Base(path), err)
			continue
		}
		if st.Sealed {
			os.Remove(path)
			continue
		}
		camp := st.Campaign
		j := &job{
			kind:       kindCampaign,
			camp:       &camp,
			feed:       newCampaignFeed(),
			resumePath: path,
			status:     StatusQueued,
			submitted:  time.Now(),
			done:       make(chan struct{}),
		}
		j.id = st.JobID
		var n int
		if _, err := fmt.Sscanf(st.JobID, "j%06d", &n); err != nil || j.id == "" {
			s.cfg.Logf("journal %s has no usable job id, skipping", filepath.Base(path))
			continue
		}
		s.mu.Lock()
		if s.seq < n {
			s.seq = n
		}
		if _, dup := s.jobs[j.id]; dup {
			s.mu.Unlock()
			continue
		}
		shard := shardKey(kindCampaign, j.camp, s.cfg.JobWorkers)
		select {
		case s.shards[shard] <- j:
		default:
			s.mu.Unlock()
			s.cfg.Logf("journal %s: queue full, campaign %s stays on disk for the next restart",
				filepath.Base(path), j.id)
			continue
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.mu.Unlock()
		s.submitted.Add(1)
		s.activeCampaigns.Add(1)
		s.campaignsResumed.Add(1)
		s.cfg.Logf("resuming campaign %s from journal (%d done, %d dropped)",
			j.id, len(st.Done), len(st.Dropped))
	}
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully stops the worker pool: intake closes (submissions get
// 503), queued jobs are canceled, running jobs may finish until ctx fires,
// then they are canceled too. Drain returns when every worker has exited.
func (s *Server) Drain(ctx context.Context) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.drainCh)
	for _, sh := range s.shards {
		close(sh)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Out of patience: cancel running simulations. Their cancellation
		// hooks fire within microseconds, so this wait is short.
		s.hardStop()
		<-done
	}
	s.hardStop()
}

// ListenAndServe runs a Server on cfg.Addr until ctx is canceled, then
// drains gracefully (bounded by cfg.DrainTimeout) and returns nil. A
// listener or serve failure returns the error instead.
func ListenAndServe(ctx context.Context, cfg Config) error {
	cfg = cfg.withDefaults()
	s, err := New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.Drain(context.Background())
		return err
	}
	handler := s.Handler()
	if cfg.Middleware != nil {
		handler = cfg.Middleware(handler)
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	cfg.Logf("dspatchd listening on %s (workers=%d sim-workers=%d queue=%d cache=%s)",
		ln.Addr(), cfg.JobWorkers, cfg.SimWorkers, cfg.QueueDepth, cacheDirLabel())

	select {
	case err := <-errc:
		s.Drain(context.Background())
		return err
	case <-ctx.Done():
	}
	cfg.Logf("dspatchd draining (timeout %s)", cfg.DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.DrainTimeout)
	defer cancel()
	s.Drain(drainCtx)
	shCtx, shCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shCancel()
	if err := hs.Shutdown(shCtx); err != nil {
		hs.Close()
	}
	cfg.Logf("dspatchd stopped")
	return nil
}

func cacheDirLabel() string {
	if dir := experiments.CacheDir(); dir != "" {
		return dir
	}
	return "off"
}

// worker drains one queue shard until it closes.
func (s *Server) worker(shard chan *job) {
	defer s.wg.Done()
	for j := range shard {
		s.runJob(j)
	}
}

// retireCampaign enrolls a terminal campaign in the stream-retention window
// and evicts the oldest streams past Config.MaxCampaignStreams. Job records
// (and their summary results) are untouched — only the bulky NDJSON record
// slices are freed. Eviction considers terminal campaigns exclusively: the
// retention window is only ever entered here, on a campaign's single
// transition to a terminal status, so an active or resumable campaign can
// never lose its stream to the cap. Every terminal campaign passes through
// here exactly once, which also makes this the one place the active gauge
// behind the admission watermarks is decremented.
func (s *Server) retireCampaign(j *job) {
	if j.kind != kindCampaign {
		return
	}
	s.activeCampaigns.Add(-1)
	s.mu.Lock()
	s.campDone = append(s.campDone, j)
	var evict []*job
	if n := len(s.campDone) - s.cfg.MaxCampaignStreams; n > 0 {
		evict = s.campDone[:n:n]
		s.campDone = append([]*job(nil), s.campDone[n:]...)
	}
	s.mu.Unlock()
	for _, old := range evict {
		old.feed.evict()
	}
}

func (s *Server) runJob(j *job) {
	if s.isDraining() || j.cancelRequested.Load() {
		s.finish(j, StatusQueued, StatusCanceled, nil, nil, "", "canceled before start")
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.claimRunning(cancel) {
		return // canceled while queued; the cancel handler finished it
	}
	// A cancel request that arrived between the queue check and the claim
	// saw no cancel func to call; honor it now.
	if j.cancelRequested.Load() {
		cancel()
	}
	s.running.Add(1)
	result, resultStats, text, err := s.execute(ctx, j)
	s.running.Add(-1)
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		s.finish(j, StatusRunning, StatusCanceled, nil, nil, "", "canceled")
	case err != nil:
		s.finish(j, StatusRunning, StatusFailed, nil, nil, "", err.Error())
	default:
		s.finish(j, StatusRunning, StatusDone, result, resultStats, text, "")
	}
}

// execute runs the job's work on the process-shared experiment engine. Panics
// are converted to job failures: one malformed job must not take down the
// daemon. resultStats, when non-nil, is the stats-bearing result form
// (per-prefetcher telemetry included) served behind ?stats=1; result is
// always the lean form.
func (s *Server) execute(ctx context.Context, j *job) (result, resultStats json.RawMessage, text string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("job panicked: %v", p)
		}
	}()
	switch j.kind {
	case kindRun:
		results, err := experiments.RunJobs(ctx, []experiments.Job{j.run.Job()}, s.cfg.SimWorkers)
		if err != nil {
			return nil, nil, "", err
		}
		res := results[0]
		if len(res.Prefetchers) > 0 {
			s.recordPrefStats(res.Prefetchers)
			full, err := marshalResult(res)
			if err != nil {
				return nil, nil, "", err
			}
			lean := res
			lean.Prefetchers = nil
			raw, err := marshalResult(lean)
			return raw, full, "", err
		}
		raw, err := marshalResult(res)
		return raw, nil, "", err
	case kindCampaign:
		var last json.RawMessage
		emit := func(line json.RawMessage) error {
			last = line
			j.feed.append(line)
			if s.cfg.CrashAfterPoints > 0 && bytes.HasPrefix(line, []byte(`{"type":"point"`)) {
				// Chaos hook: the record (and, with a journal, its done frame)
				// is already durable/visible — crashing here is the worst
				// moment a real SIGKILL could pick.
				if int(s.pointsEmitted.Add(1)) == s.cfg.CrashAfterPoints {
					s.cfg.Logf("chaos: crashing after %d campaign points", s.cfg.CrashAfterPoints)
					s.cfg.CrashFn()
				}
			}
			return nil
		}
		jl, resume := s.openCampaignJournal(j)
		if jl != nil {
			defer jl.Close()
		}
		// One campaign lifecycle for both modes; a coordinator only supplies
		// remote execution of the runs.
		eng := sweep.Engine{
			Workers: s.cfg.SimWorkers,
			Journal: jl,
			Store:   s.store,
			Resume:  resume,
			Logf:    s.cfg.Logf,
		}
		var sum sweep.Summary
		if s.fleet != nil {
			sum, err = eng.RunWith(ctx, *j.camp, emit, s.executeOnFleet)
		} else {
			sum, err = eng.Run(ctx, *j.camp, emit)
		}
		if err != nil {
			// A user cancel (or a deterministic failure) must not resurrect
			// forever on every restart; only a drain/hard-stop cancel — the
			// restart case — keeps the journal for resume.
			if jl != nil && (j.cancelRequested.Load() || ctx.Err() == nil) {
				os.Remove(jl.Path())
			}
			return nil, nil, "", err
		}
		if jl != nil {
			// Sealed: the campaign is complete, nothing left to resume.
			os.Remove(jl.Path())
		}
		// The engine's final record is the summary; it doubles as the
		// JobView result so /v1/jobs/{id} answers without the full stream.
		// A stats-collecting campaign's summary carries the aggregated
		// telemetry: that full form goes behind ?stats=1 and the lean form
		// (telemetry stripped) is the default result.
		if len(sum.Prefetchers) > 0 {
			s.recordPrefStats(sum.Prefetchers)
			lean := sum
			lean.Prefetchers = nil
			raw, err := marshalResult(lean)
			return raw, last, "", err
		}
		return last, nil, "", nil
	case kindExperiment:
		e, ok := experiments.ExperimentByID(j.expID)
		if !ok {
			return nil, nil, "", fmt.Errorf("unknown experiment %q", j.expID)
		}
		scale := j.scale.scale().WithParallel(s.cfg.SimWorkers).WithContext(ctx)
		v := e.Run(scale)
		if err := ctx.Err(); err != nil {
			return nil, nil, "", err
		}
		raw, err := marshalResult(v)
		if err != nil {
			return nil, nil, "", err
		}
		var buf bytes.Buffer
		e.Format(&buf, v)
		return raw, nil, buf.String(), nil
	}
	return nil, nil, "", fmt.Errorf("unknown job kind %q", j.kind)
}

// openCampaignJournal opens the durable journal for a campaign job: a
// resumed job reopens its unsealed journal (recovering the replay state), a
// fresh one creates a new journal under the journal dir. Journaling is an
// accelerator for restarts, never a correctness dependency: any error here
// degrades to an unjournaled run with a log line.
func (s *Server) openCampaignJournal(j *job) (*sweep.Journal, *sweep.JournalState) {
	if s.journalDir == "" {
		return nil, nil
	}
	if j.resumePath != "" {
		jl, st, err := sweep.OpenJournal(j.resumePath)
		if err != nil {
			s.cfg.Logf("campaign %s: journal reopen failed, running from scratch: %v", j.id, err)
			return nil, nil
		}
		return jl, st
	}
	jl, err := sweep.CreateJournal(filepath.Join(s.journalDir, j.id+".journal"), j.id, *j.camp)
	if err != nil {
		s.cfg.Logf("campaign %s: journal disabled: %v", j.id, err)
		return nil, nil
	}
	return jl, nil
}

// marshalResult encodes a result value. The fast path is encoding/json
// verbatim — byte-identical to marshaling the library call's return value.
// Values containing NaN/Inf (possible in sparse experiment aggregates, e.g.
// a category with no sampled workloads) are not representable in JSON;
// those fall back to a sanitized deep copy with such numbers as null.
func marshalResult(v any) (json.RawMessage, error) {
	raw, err := json.Marshal(v)
	if err == nil {
		return raw, nil
	}
	var ue *json.UnsupportedValueError
	if !errors.As(err, &ue) {
		return nil, err
	}
	return json.Marshal(sanitizeValue(reflect.ValueOf(v)))
}

// sanitizeValue deep-copies v into generic JSON values, mapping NaN and
// ±Inf floats to null. Struct fields follow their json tags so the shape
// matches the fast path.
func sanitizeValue(rv reflect.Value) any {
	switch rv.Kind() {
	case reflect.Invalid:
		return nil
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return nil
		}
		return sanitizeValue(rv.Elem())
	case reflect.Float32, reflect.Float64:
		f := rv.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil
		}
		return f
	case reflect.Slice, reflect.Array:
		out := make([]any, rv.Len())
		for i := range out {
			out[i] = sanitizeValue(rv.Index(i))
		}
		return out
	case reflect.Map:
		out := make(map[string]any, rv.Len())
		iter := rv.MapRange()
		for iter.Next() {
			out[fmt.Sprint(iter.Key().Interface())] = sanitizeValue(iter.Value())
		}
		return out
	case reflect.Struct:
		out := map[string]any{}
		for _, f := range reflect.VisibleFields(rv.Type()) {
			if !f.IsExported() || f.Anonymous {
				continue
			}
			name := f.Name
			if tag, ok := f.Tag.Lookup("json"); ok {
				if tag == "-" {
					continue
				}
				if comma := bytes.IndexByte([]byte(tag), ','); comma >= 0 {
					tag = tag[:comma]
				}
				if tag != "" {
					name = tag
				}
			}
			out[name] = sanitizeValue(rv.FieldByIndex(f.Index))
		}
		return out
	default:
		return rv.Interface()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// submit registers j and enqueues it on its spec's shard.
func (s *Server) submit(w http.ResponseWriter, j *job, shard int) {
	j.status = StatusQueued
	j.submitted = time.Now()
	j.done = make(chan struct{})

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !s.evictLocked() {
		s.mu.Unlock()
		s.rejected.Add(1)
		httpError(w, http.StatusServiceUnavailable, "job table full (all jobs active)")
		return
	}
	s.seq++
	j.id = fmt.Sprintf("j%06d", s.seq)
	select {
	case s.shards[shard] <- j:
	default:
		s.seq-- // id never observed
		s.mu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "job queue full")
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.mu.Unlock()

	s.submitted.Add(1)
	if j.kind == kindCampaign {
		s.activeCampaigns.Add(1)
	}
	writeJSON(w, http.StatusAccepted, j.view(false))
}

// evictLocked makes room for one more job record, reporting false when the
// table is pinned by non-terminal jobs. Caller holds s.mu.
func (s *Server) evictLocked() bool {
	if len(s.order) < s.cfg.MaxJobs {
		return true
	}
	for i, old := range s.order {
		old.mu.Lock()
		terminal := old.status.Terminal()
		old.mu.Unlock()
		if terminal {
			delete(s.jobs, old.id)
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, false) {
		return
	}
	var spec RunSpec
	if !decodeBodyLimit(w, r, &spec, false, maxScenarioBodyBytes) {
		return
	}
	if err := spec.Normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	j := &job{kind: kindRun, run: &spec}
	s.submit(w, j, shardKey(kindRun, &spec, s.cfg.JobWorkers))
}

func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, true) {
		return
	}
	var spec sweep.Campaign
	if !decodeBodyLimit(w, r, &spec, false, maxScenarioBodyBytes) {
		return
	}
	if err := spec.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	j := &job{kind: kindCampaign, camp: &spec, feed: newCampaignFeed()}
	s.submit(w, j, shardKey(kindCampaign, &spec, s.cfg.JobWorkers))
}

// handleCampaignStream writes the campaign's NDJSON records. Without ?wait=
// it returns a snapshot of the records so far (the complete stream once the
// job is terminal); with ?wait= it keeps following live appends until the
// job finishes or the window — clamped to Config.MaxWait — elapses.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok || j.kind != kindCampaign {
		httpError(w, http.StatusNotFound, "no such campaign")
		return
	}
	if j.feed.isEvicted() {
		httpError(w, http.StatusGone,
			"campaign record stream evicted (retention cap); the summary remains at /v1/jobs/"+j.id)
		return
	}
	wait, err := s.parseWait(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	deadline := time.Now().Add(wait)
	var timer *time.Timer
	if wait > 0 {
		timer = time.NewTimer(wait)
		defer timer.Stop()
	}
	from := 0
	for {
		recs, changed := j.feed.next(from)
		for _, rec := range recs {
			w.Write(rec)
			w.Write([]byte("\n"))
		}
		from += len(recs)
		if len(recs) > 0 {
			if flusher != nil {
				flusher.Flush()
			}
			continue // drain everything available before blocking
		}
		select {
		case <-j.done:
			// Terminal: emit any records appended after our last read, then
			// end the stream.
			recs, _ := j.feed.next(from)
			for _, rec := range recs {
				w.Write(rec)
				w.Write([]byte("\n"))
			}
			return
		default:
		}
		if wait <= 0 || !time.Now().Before(deadline) {
			return
		}
		select {
		case <-changed:
		case <-j.done:
		case <-timer.C:
			return
		case <-r.Context().Done():
			return
		case <-s.drainCh: // don't hold Shutdown hostage to live follows
			return
		}
	}
}

func (s *Server) handleSubmitExperiment(w http.ResponseWriter, r *http.Request) {
	if !s.admit(w, r, false) {
		return
	}
	id := r.PathValue("id")
	if _, ok := experiments.ExperimentByID(id); !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown experiment %q (see GET /v1/experiments)", id))
		return
	}
	var spec ScaleSpec
	if !decodeBody(w, r, &spec, true) {
		return
	}
	if err := spec.normalize(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	j := &job{kind: kindExperiment, expID: id, scale: &spec}
	s.submit(w, j, shardKey(kindExperiment+"\x00"+id, &spec, s.cfg.JobWorkers))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	views := make([]JobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view(false)
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	d, err := s.parseWait(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-j.done:
		case <-t.C:
		case <-r.Context().Done():
		case <-s.drainCh: // don't hold Shutdown hostage to long-polls
		}
	}
	writeJSON(w, http.StatusOK, j.viewStats(true, wantStats(r)))
}

// wantStats reads the ?stats= opt-in of GET /v1/jobs/{id}: when true the
// stats-bearing result form (per-prefetcher telemetry included) is served
// instead of the lean one.
func wantStats(r *http.Request) bool {
	switch r.URL.Query().Get("stats") {
	case "1", "true":
		return true
	}
	return false
}

// parseWait reads the ?wait= long-poll window: absent means 0 (answer
// immediately), negative durations are rejected, and anything above
// Config.MaxWait is clamped so one request can pin a handler goroutine for
// at most that long.
func (s *Server) parseWait(r *http.Request) (time.Duration, error) {
	waitStr := r.URL.Query().Get("wait")
	if waitStr == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(waitStr)
	if err != nil {
		return 0, fmt.Errorf("wait: %v", err)
	}
	if d < 0 {
		return 0, fmt.Errorf("wait: must be non-negative, got %s", d)
	}
	if d > s.cfg.MaxWait {
		d = s.cfg.MaxWait
	}
	return d, nil
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.cancelRequested.Store(true)
	if !s.finish(j, StatusQueued, StatusCanceled, nil, nil, "", "canceled while queued") {
		j.mu.Lock()
		if j.status == StatusRunning && j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	type info struct {
		ID    string `json:"id"`
		Title string `json:"title"`
		Sim   bool   `json:"sim"`
	}
	var out []info
	for _, e := range experiments.Experiments() {
		out = append(out, info{ID: e.ID, Title: e.Title, Sim: e.Sim})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	var out []WorkloadInfo
	for _, wl := range trace.Workloads() {
		out = append(out, workloadView(wl))
	}
	writeJSON(w, http.StatusOK, out)
}

func workloadView(wl trace.Workload) WorkloadInfo {
	return WorkloadInfo{
		Name:         wl.Name,
		Category:     string(wl.Category),
		MemIntensive: wl.MemIntensive,
		Source:       wl.Source,
		Fingerprint:  wl.Fingerprint,
	}
}

// handleRegisterScenarios registers ad-hoc scenario specs process-wide: the
// body is one ScenarioSpec object or an array of them, and registration
// follows the registry's strict-idempotent rules (identical re-registration
// is a no-op, redefining an existing workload is a 409). Registered names
// are immediately usable in runs, campaigns and experiments; for
// campaign-scoped scenarios prefer the campaign's inline "scenarios" block.
func (s *Server) handleRegisterScenarios(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxScenarioBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	specs, err := trace.ParseSpecs(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	out := make([]WorkloadInfo, 0, len(specs))
	for _, sp := range specs {
		wl, err := trace.RegisterSpec(sp)
		if err != nil {
			code := http.StatusBadRequest
			if strings.Contains(err.Error(), "conflicts with existing") {
				code = http.StatusConflict
			}
			httpError(w, code, err.Error())
			return
		}
		out = append(out, workloadView(wl))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePrefetchers(w http.ResponseWriter, r *http.Request) {
	out := make([]string, len(sim.AllPFs))
	for i, p := range sim.AllPFs {
		out[i] = string(p)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	type cacheInfo struct {
		Enabled bool   `json:"enabled"`
		Dir     string `json:"dir,omitempty"`
		Entries int    `json:"entries"`
		Bytes   int64  `json:"bytes"`
	}
	info := cacheInfo{Dir: experiments.CacheDir()}
	if info.Dir != "" {
		info.Enabled = true
		if matches, err := filepath.Glob(filepath.Join(info.Dir, "*.json")); err == nil {
			info.Entries = len(matches)
			for _, m := range matches {
				if st, err := os.Stat(m); err == nil {
					info.Bytes += st.Size()
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// Health is the /healthz body.
type Health struct {
	Status        string `json:"status"` // "ok" or "draining"
	UptimeSeconds int64  `json:"uptime_seconds"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	JobWorkers    int    `json:"job_workers"`
	SimWorkers    int    `json:"sim_workers"`
	CacheEnabled  bool   `json:"cache_enabled"`
	// ActiveCampaigns is the queued-or-running campaign count the admission
	// watermarks gate on.
	ActiveCampaigns int `json:"active_campaigns"`
}

func (s *Server) health() Health {
	h := Health{
		Status:          "ok",
		UptimeSeconds:   int64(time.Since(s.start).Seconds()),
		Running:         int(s.running.Load()),
		JobWorkers:      s.cfg.JobWorkers,
		SimWorkers:      s.cfg.SimWorkers,
		CacheEnabled:    experiments.CacheDir() != "",
		ActiveCampaigns: int(s.activeCampaigns.Load()),
	}
	s.mu.Lock()
	if s.draining {
		h.Status = "draining"
	}
	for _, sh := range s.shards {
		h.Queued += len(sh)
	}
	s.mu.Unlock()
	return h
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// handleLivez is pure process liveness: if the handler answers at all, the
// daemon is alive — draining included. Restart policies key off this.
func (s *Server) handleLivez(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// handleReadyz is readiness to accept work: it flips to 503 the moment a
// drain begins, so load balancers and fleet coordinators stop routing new
// dispatches here while in-flight jobs finish. Health probes and worker
// selection key off this.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	if h.Status != "ok" {
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	ec := experiments.EngineCounters()
	refsPerSec := 0.0
	if ec.SimNanos > 0 {
		refsPerSec = float64(ec.RefsSimulated) / (float64(ec.SimNanos) / 1e9)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b bytes.Buffer
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counterf := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name,
			strconv.FormatFloat(v, 'g', -1, 64))
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name,
			strconv.FormatFloat(v, 'g', -1, 64))
	}
	counter("dspatchd_jobs_submitted_total", "Jobs accepted for execution.", s.submitted.Load())
	counter("dspatchd_jobs_completed_total", "Jobs finished successfully.", s.completed.Load())
	counter("dspatchd_jobs_failed_total", "Jobs that ended in error.", s.failed.Load())
	counter("dspatchd_jobs_canceled_total", "Jobs canceled before or during execution.", s.canceled.Load())
	counter("dspatchd_jobs_rejected_total", "Submissions rejected (queue full or draining).", s.rejected.Load())
	gauge("dspatchd_jobs_running", "Jobs executing right now.", float64(h.Running))
	gauge("dspatchd_jobs_queued", "Jobs waiting in worker queues.", float64(h.Queued))
	counter("dspatchd_engine_sims_total", "Simulations actually executed by the engine.", ec.Sims)
	counter("dspatchd_engine_memo_hits_total", "Runs served from the in-process memo.", ec.MemoHits)
	counter("dspatchd_engine_disk_cache_hits_total", "Runs served from the persistent cache.", ec.DiskHits)
	counter("dspatchd_engine_refs_simulated_total", "Memory references simulated (cold runs).", ec.RefsSimulated)
	counter("dspatchd_engine_batches_total", "Lockstep multi-config batches executed.", ec.Batches)
	counter("dspatchd_points_redispatched_total", "Campaign runs returned to the pending set and dispatched again.", s.pointsRedispatched.Load())
	counter("dspatchd_workers_ejected_total", "Fleet workers ejected from the rotation after consecutive failures.", s.workersEjected.Load())
	counter("dspatchd_leases_expired_total", "Dispatch leases that expired before the worker answered.", s.leasesExpired.Load())
	counter("dspatchd_quota_rejections_total", "Submissions shed by per-client quota buckets.", s.quotaRejected.Load())
	counter("dspatchd_campaigns_shed_total", "Campaign submissions shed at the high watermark.", s.campaignsShed.Load())
	counter("dspatchd_campaigns_resumed_total", "Campaigns resurrected from unsealed journals at startup.", s.campaignsResumed.Load())
	gauge("dspatchd_campaigns_active", "Campaigns queued or running right now.", float64(h.ActiveCampaigns))
	counterf("dspatchd_engine_sim_seconds_total", "Wall seconds spent simulating.", float64(ec.SimNanos)/1e9)
	gauge("dspatchd_engine_refs_per_second", "Aggregate simulation throughput.", refsPerSec)
	gauge("dspatchd_uptime_seconds", "Seconds since daemon start.", float64(h.UptimeSeconds))
	s.writePrefMetrics(&b)
	w.Write(b.Bytes())
}

// writePrefMetrics renders the per-prefetcher telemetry aggregate as two
// labeled counter families: one for flat counters, one for histogram
// buckets. Series only exist once a stats-collecting job has finished.
func (s *Server) writePrefMetrics(b *bytes.Buffer) {
	s.prefMu.Lock()
	defer s.prefMu.Unlock()
	if len(s.prefAgg) == 0 {
		return
	}
	byName := append([]sim.PrefetcherStats(nil), s.prefAgg...)
	sort.Slice(byName, func(i, j int) bool { return byName[i].Name < byName[j].Name })

	fmt.Fprintf(b, "# HELP dspatchd_prefetcher_events_total Per-prefetcher model event counters, aggregated across stats-collecting jobs.\n# TYPE dspatchd_prefetcher_events_total counter\n")
	for _, st := range byName {
		names := make([]string, 0, len(st.Counters))
		for n := range st.Counters {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(b, "dspatchd_prefetcher_events_total{prefetcher=%q,counter=%q} %d\n",
				st.Name, n, st.Counters[n])
		}
	}
	fmt.Fprintf(b, "# HELP dspatchd_prefetcher_hist_total Per-prefetcher histogram bucket counts, aggregated across stats-collecting jobs.\n# TYPE dspatchd_prefetcher_hist_total counter\n")
	for _, st := range byName {
		names := make([]string, 0, len(st.Histograms))
		for n := range st.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			hist := st.Histograms[n]
			for i, bkt := range hist.Buckets {
				fmt.Fprintf(b, "dspatchd_prefetcher_hist_total{prefetcher=%q,hist=%q,bucket=%q} %d\n",
					st.Name, n, bkt, hist.Counts[i])
			}
		}
	}
}

// Body caps: ordinary bodies get 1 MiB; scenario-bearing bodies (runs,
// campaigns, scenario registration) may inline base64 DSPTRC01 trace
// payloads — the coordinator forwards imported traces to workers this way —
// and get the larger cap, sized above trace.SpecFor's forwarding limit.
const (
	maxBodyBytes         = 1 << 20
	maxScenarioBodyBytes = 48 << 20
)

// decodeBody strictly decodes a JSON request body into dst. allowEmpty
// accepts a missing/empty body as the zero value. On failure it writes the
// 400 and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool) bool {
	return decodeBodyLimit(w, r, dst, allowEmpty, maxBodyBytes)
}

func decodeBodyLimit(w http.ResponseWriter, r *http.Request, dst any, allowEmpty bool, limit int64) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		if allowEmpty {
			return true
		}
		httpError(w, http.StatusBadRequest, "request body required")
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

type apiError struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, apiError{Error: msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, `{"error":%q}`, "encoding response: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(data)
	w.Write([]byte("\n"))
}
