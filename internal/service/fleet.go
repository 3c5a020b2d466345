package service

import (
	"context"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"
)

// FleetConfig turns a Server into a campaign coordinator: instead of
// simulating campaign points on the local engine, it shards them across
// worker daemons, retries failures elsewhere, and merges the results into
// the same byte-identical NDJSON stream a local run produces. The fleet's
// shared result store is the daemon's own (Config.StoreDir): the
// coordinator consults it before dispatching and records every worker
// result into it, so a re-run after a crash redoes only the missing points.
type FleetConfig struct {
	// Workers are the base URLs of the worker daemons, e.g.
	// ["http://10.0.0.1:8491", "http://10.0.0.2:8491"]. Static members are
	// trusted immediately (they start healthy).
	Workers []string
	// WorkersFile, when non-empty, is a roster file (one worker URL per
	// line, #-comments allowed) reloaded every WorkersReload during a
	// campaign: membership becomes dynamic. Unlike static Workers, a worker
	// joining via the file starts unhealthy-pending and is admitted to the
	// rotation only once a /readyz probe succeeds — the same machinery that
	// re-admits ejected workers — and a worker removed from the file drains
	// its in-flight dispatches gracefully before leaving the pool.
	WorkersFile string
	// WorkersReload is the roster reload period (default 5s).
	WorkersReload time.Duration
	// LeaseTTL bounds one dispatch: a worker holding a point longer is
	// presumed hung, the lease expires, and the point is re-dispatched
	// (default 60s).
	LeaseTTL time.Duration
	// MaxAttempts is the total number of dispatches a point may consume
	// before it is dropped with a reason (default 4).
	MaxAttempts int
	// MaxInflight bounds concurrent dispatches per worker (default 4).
	MaxInflight int
	// ProbeInterval is the health-probe period during a fleet campaign
	// (default 2s). Probes hit each worker's /readyz.
	ProbeInterval time.Duration
	// EjectAfter is the consecutive probe/dispatch failure count that ejects
	// a worker from the rotation (default 3).
	EjectAfter int
	// ReadmitAfter is the base backoff before an ejected worker is probed
	// for re-admission; it doubles per consecutive ejection, capped at
	// 8x (default 5s).
	ReadmitAfter time.Duration
	// NoWorkerGrace bounds how long pending points wait while every worker
	// is ejected before the wait itself counts as a failed attempt — the
	// campaign degrades to dropped points instead of wedging (default 30s).
	NoWorkerGrace time.Duration
	// DispatchSeed perturbs retry-backoff jitter (see sweep.DispatchConfig).
	DispatchSeed uint64
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.EjectAfter <= 0 {
		c.EjectAfter = 3
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 5 * time.Second
	}
	if c.NoWorkerGrace <= 0 {
		c.NoWorkerGrace = 30 * time.Second
	}
	if c.WorkersReload <= 0 {
		c.WorkersReload = 5 * time.Second
	}
	return c
}

// LoadWorkersFile reads a worker roster: one base URL per line, blank lines
// and #-comments ignored.
func LoadWorkersFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var urls []string
	seen := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || seen[line] {
			continue
		}
		seen[line] = true
		urls = append(urls, line)
	}
	return urls, nil
}

// fleetWorker is one worker daemon's standing in the rotation. Guarded by
// workerPool.mu.
type fleetWorker struct {
	url    string
	client *Client

	healthy    bool
	consecFail int       // consecutive failures since the last success
	ejections  int       // lifetime ejections; scales the readmit backoff
	readmitAt  time.Time // ejected until then; a probe may readmit after
	inflight   int
	// draining marks a worker removed from the roster: it takes no new
	// dispatches and is skipped by probes; release() deletes it from the
	// pool once its in-flight count reaches zero, so removal never strands
	// a lease.
	draining bool
}

// workerPool tracks worker health for the coordinator: least-loaded healthy
// selection, consecutive-failure ejection, backoff-gated re-admission via
// probes. Dispatch goroutines and the probe goroutine touch it
// concurrently, so every method locks.
type workerPool struct {
	cfg FleetConfig

	mu      sync.Mutex
	workers []*fleetWorker
	ejected uint64 // lifetime ejections (metrics)
}

func newWorkerPool(cfg FleetConfig) *workerPool {
	p := &workerPool{cfg: cfg}
	for _, url := range cfg.Workers {
		c := NewClient(url)
		// The coordinator owns retries (that's the dispatcher's job); the
		// dispatch client must surface every 503 so sheds are accounted for.
		c.HTTPClient = &http.Client{}
		p.workers = append(p.workers, &fleetWorker{url: url, client: c, healthy: true})
	}
	return p
}

// pick returns the healthy worker with the fewest in-flight dispatches that
// still has capacity, preferring any over the worker named notURL (the one
// that just failed this point). It reserves an inflight slot; the caller
// must release() it.
func (p *workerPool) pick(notURL string) *fleetWorker {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *fleetWorker
	for pass := 0; pass < 2; pass++ {
		for _, w := range p.workers {
			if !w.healthy || w.draining || w.inflight >= p.cfg.MaxInflight {
				continue
			}
			if pass == 0 && w.url == notURL {
				continue
			}
			if best == nil || w.inflight < best.inflight {
				best = w
			}
		}
		if best != nil || notURL == "" {
			break
		}
		// Second pass: the failed worker is better than no worker.
	}
	if best != nil {
		best.inflight++
	}
	return best
}

func (p *workerPool) release(w *fleetWorker) {
	p.mu.Lock()
	w.inflight--
	if w.draining && w.inflight <= 0 {
		p.removeLocked(w)
	}
	p.mu.Unlock()
}

func (p *workerPool) removeLocked(w *fleetWorker) {
	for i, pw := range p.workers {
		if pw == w {
			p.workers = append(p.workers[:i:i], p.workers[i+1:]...)
			return
		}
	}
}

// setMembership reconciles the pool against a freshly loaded roster:
// unknown URLs join as unhealthy-pending (a probe must admit them), known
// URLs absent from the roster start draining (re-listing a draining worker
// reinstates it). It reports how many workers joined and how many were set
// draining or removed.
func (p *workerPool) setMembership(urls []string, now time.Time) (added, removed int) {
	want := make(map[string]bool, len(urls))
	for _, u := range urls {
		want[u] = true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	have := map[string]*fleetWorker{}
	for _, w := range p.workers {
		have[w.url] = w
	}
	for _, w := range p.workers {
		if want[w.url] {
			if w.draining {
				w.draining = false
			}
			continue
		}
		if w.draining {
			continue
		}
		w.draining = true
		removed++
	}
	// Drained idle workers leave immediately; busy ones leave in release().
	for _, w := range have {
		if w.draining && w.inflight <= 0 {
			p.removeLocked(w)
		}
	}
	for _, u := range urls {
		if _, ok := have[u]; ok {
			continue
		}
		c := NewClient(u)
		c.HTTPClient = &http.Client{}
		// Joiners are guilty until probed: healthy=false with a zero
		// readmitAt makes the next probe cycle consider them due, and a
		// probe success admits them through the standard re-admission path.
		p.workers = append(p.workers, &fleetWorker{url: u, client: c})
		added++
	}
	return added, removed
}

// memberCount reports current (non-draining) roster size.
func (p *workerPool) memberCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if !w.draining {
			n++
		}
	}
	return n
}

// reportSuccess clears the worker's failure streak.
func (p *workerPool) reportSuccess(w *fleetWorker) {
	p.mu.Lock()
	w.consecFail = 0
	p.mu.Unlock()
}

// reportFailure counts a probe or dispatch failure against the worker and
// ejects it after EjectAfter consecutive failures, with a re-admission gate
// that doubles per consecutive ejection (capped at 8x ReadmitAfter). It
// reports whether this call ejected the worker.
func (p *workerPool) reportFailure(w *fleetWorker, now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failLocked(w, now)
}

func (p *workerPool) failLocked(w *fleetWorker, now time.Time) bool {
	w.consecFail++
	if !w.healthy || w.consecFail < p.cfg.EjectAfter {
		return false
	}
	w.healthy = false
	w.ejections++
	p.ejected++
	backoff := p.cfg.ReadmitAfter
	for i := 1; i < w.ejections && backoff < 8*p.cfg.ReadmitAfter; i++ {
		backoff *= 2
	}
	if backoff > 8*p.cfg.ReadmitAfter {
		backoff = 8 * p.cfg.ReadmitAfter
	}
	w.readmitAt = now.Add(backoff)
	return true
}

// healthyCount reports workers currently in the rotation.
func (p *workerPool) healthyCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if w.healthy && !w.draining {
			n++
		}
	}
	return n
}

// ejectedTotal reports lifetime ejections.
func (p *workerPool) ejectedTotal() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ejected
}

// probe health-checks every worker due for one: healthy workers on every
// call, ejected workers only past their re-admission gate. A probe success
// on an ejected worker re-admits it; a failure re-ejects with a longer
// gate. probe blocks on HTTP, so the coordinator runs it in its own
// goroutine, never on the event loop.
func (p *workerPool) probe(ctx context.Context, now time.Time, onEject func(url string)) {
	p.mu.Lock()
	var due []*fleetWorker
	for _, w := range p.workers {
		if w.draining {
			continue
		}
		if w.healthy || !now.Before(w.readmitAt) {
			due = append(due, w)
		}
	}
	p.mu.Unlock()

	for _, w := range due {
		ok := probeWorker(ctx, w.client)
		p.mu.Lock()
		switch {
		case ok && !w.healthy:
			w.healthy = true // re-admitted
			w.consecFail = 0
		case ok:
			w.consecFail = 0
		case !w.healthy:
			// Still dead past the gate: push the gate out again (counts as
			// another ejection for the backoff doubling, not for metrics).
			w.ejections++
			backoff := p.cfg.ReadmitAfter
			for i := 1; i < w.ejections && backoff < 8*p.cfg.ReadmitAfter; i++ {
				backoff *= 2
			}
			if backoff > 8*p.cfg.ReadmitAfter {
				backoff = 8 * p.cfg.ReadmitAfter
			}
			w.readmitAt = now.Add(backoff)
		default:
			if p.failLocked(w, now) && onEject != nil {
				onEject(w.url)
			}
		}
		p.mu.Unlock()
	}
}

// probeWorker asks one worker's readiness endpoint whether it can take
// dispatches. Any transport error, non-200, or slow answer is a failure.
func probeWorker(ctx context.Context, c *Client) bool {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, c.BaseURL+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}
