package sweep

import (
	"fmt"
	"hash/fnv"
	"time"
)

// The Dispatcher is the bookkeeping half of fault-tolerant fleet execution:
// pure state-machine accounting for which campaign positions are pending,
// leased to a worker, completed, or dropped. It owns the retry policy —
// capped attempts, exponential backoff with deterministic jitter — while the
// coordinator (internal/service) owns the I/O: it asks Next for work, leases
// it, and reports Complete or Fail. Keeping the policy free of I/O and
// clocks (every method takes `now`) makes the whole failure path unit
// testable without spinning up a fleet.

// Dispatch states of a position.
const (
	stateReady  = iota // awaiting dispatch (possibly backing off)
	stateLeased        // held by a worker under a lease deadline
	stateDone          // result recorded
	stateDropped
)

// DispatchConfig bounds the retry policy. Zero fields take the defaults.
type DispatchConfig struct {
	// MaxAttempts is the total number of dispatches a position may consume
	// before it is dropped (default 4: one try, three retries).
	MaxAttempts int
	// BackoffBase is the delay before the first retry (default 250ms);
	// each further retry doubles it, capped at BackoffMax (default 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// LeaseTTL is how long a worker may hold a position before the
	// coordinator treats the dispatch as expired (default 60s).
	LeaseTTL time.Duration
	// Seed perturbs the jitter schedule. Jitter is derived from
	// (key, attempt, seed) — never from a clock or global RNG — so a retry
	// schedule is reproducible run to run.
	Seed uint64
}

func (c DispatchConfig) withDefaults() DispatchConfig {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	return c
}

// DispatchCounters is the dispatcher's telemetry.
type DispatchCounters struct {
	Dispatches   uint64 // leases granted
	Redispatches uint64 // failures that went back to the pending set
	Drops        uint64 // positions abandoned after MaxAttempts
}

type dispatchEntry struct {
	state      int
	attempts   int       // dispatches consumed so far
	readyAt    time.Time // earliest next dispatch (backoff gate)
	lastWorker string
}

// Dispatcher tracks positions 0..n-1 through dispatch, retry, and drop.
// It is not concurrency-safe: the coordinator serializes access from its
// event loop.
type Dispatcher struct {
	cfg     DispatchConfig
	keys    []string // canonical per-position keys; jitter input
	entries []dispatchEntry
	ctr     DispatchCounters
}

// NewDispatcher tracks one position per key. Keys should be the positions'
// canonical identities (the campaign points' cache keys): they seed the
// deterministic jitter, and two runs of one spec share a retry schedule.
func NewDispatcher(keys []string, cfg DispatchConfig) *Dispatcher {
	return &Dispatcher{
		cfg:     cfg.withDefaults(),
		keys:    keys,
		entries: make([]dispatchEntry, len(keys)),
	}
}

// Next returns the lowest ready position. When nothing is ready but backoff
// gates will open later, ok is false and wake is the earliest gate; when
// every open position is leased (or none remain), wake is zero.
func (d *Dispatcher) Next(now time.Time) (pos int, ok bool, wake time.Time) {
	pos = -1
	for i := range d.entries {
		e := &d.entries[i]
		if e.state != stateReady {
			continue
		}
		if !e.readyAt.After(now) {
			return i, true, time.Time{}
		}
		if wake.IsZero() || e.readyAt.Before(wake) {
			wake = e.readyAt
		}
	}
	return -1, false, wake
}

// Lease hands position pos to worker, returning the lease deadline. It
// panics if pos is not ready: leasing is only valid straight after Next.
func (d *Dispatcher) Lease(pos int, worker string, now time.Time) time.Time {
	e := &d.entries[pos]
	if e.state != stateReady {
		panic(fmt.Sprintf("sweep: lease of position %d in state %d", pos, e.state))
	}
	e.state = stateLeased
	e.attempts++
	e.lastWorker = worker
	d.ctr.Dispatches++
	return now.Add(d.cfg.LeaseTTL)
}

// Complete resolves a leased position successfully. It reports false (and
// changes nothing) if the position was already resolved — a late result
// after a lease expiry redispatch must not double-count.
func (d *Dispatcher) Complete(pos int) bool {
	e := &d.entries[pos]
	if e.state != stateLeased {
		return false
	}
	e.state = stateDone
	return true
}

// Fail reports a failed dispatch of a leased position — worker error, shed,
// lease expiry; the dispatcher doesn't care which, that's the unified
// failure path. With attempts left the position returns to the pending set
// behind a backoff gate and Fail reports retry=true; otherwise it is
// dropped. Failing an already-resolved position is a no-op.
func (d *Dispatcher) Fail(pos int, now time.Time) (retry bool) {
	e := &d.entries[pos]
	if e.state != stateLeased {
		return false
	}
	if e.attempts >= d.cfg.MaxAttempts {
		e.state = stateDropped
		d.ctr.Drops++
		return false
	}
	e.state = stateReady
	e.readyAt = now.Add(d.backoff(pos, e.attempts))
	d.ctr.Redispatches++
	return true
}

// backoff is the delay before attempt attempts+1: BackoffBase doubled per
// prior retry, capped, then jittered by a factor in [0.75, 1.25) derived
// from (key, attempt, seed) so schedules are reproducible but desynchronized
// across positions.
func (d *Dispatcher) backoff(pos, attempts int) time.Duration {
	delay := d.cfg.BackoffBase
	for i := 1; i < attempts && delay < d.cfg.BackoffMax; i++ {
		delay *= 2
	}
	if delay > d.cfg.BackoffMax {
		delay = d.cfg.BackoffMax
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", d.keys[pos], attempts, d.cfg.Seed)
	frac := float64(h.Sum64()%1000) / 1000.0 // [0,1)
	return time.Duration(float64(delay) * (0.75 + 0.5*frac))
}

// LastWorker reports the worker holding (or last to hold) pos, so the
// coordinator can steer a retry elsewhere.
func (d *Dispatcher) LastWorker(pos int) string { return d.entries[pos].lastWorker }

// Attempts reports how many dispatches pos has consumed.
func (d *Dispatcher) Attempts(pos int) int { return d.entries[pos].attempts }

// Counters returns the dispatch telemetry accumulated so far.
func (d *Dispatcher) Counters() DispatchCounters { return d.ctr }
