package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"dspatch/internal/sim"
	"dspatch/internal/sweep"
	"dspatch/internal/trace"
)

// The coordinator executes a campaign's runs across a fleet of worker
// daemons. The campaign lifecycle — the Recorder, deduplication into runs,
// journal replay, the shared-store pre-pass, store-before-journal
// completion, drops and the seal — is sweep.Engine's, exactly as for a
// local run; the coordinator is the sweep.Executor that turns pending runs
// into results. Execution is organized around three invariants:
//
//  1. Stream bytes are a pure function of the spec. All results — whatever
//     worker produced them, in whatever order, after however many retries —
//     flow through the same sweep.Recorder a local run uses, which emits in
//     canonical index order. A fleet run is byte-identical to a local run
//     on one machine.
//  2. One failure path. Worker HTTP errors, 503 sheds, lease expiries and
//     dead workers all funnel into sweep.Dispatcher.Fail: the run returns to
//     the pending set behind a backoff gate and is re-dispatched elsewhere,
//     until MaxAttempts is exhausted and the run's points are dropped WITH a
//     reason into the summary. Nothing is lost silently, and nothing wedges.
//  3. The dispatch unit is the deduplicated simulation run, not the point:
//     a baseline shared by thirty points is dispatched once, and the shared
//     result store (Config.StoreDir) extends that dedup across
//     campaigns and coordinator restarts.

// dispatch failure classes — the reasons recorded against retries/drops.
const (
	classLeaseExpired = "lease expired"
	classShed         = "worker shed (503)"
)

// dispatchSpec returns the point to send to a worker. Campaign point records
// stay spec-free (recorded streams are a pure function of the campaign), but
// the dispatched copy must be self-contained: spec-sourced workloads travel
// as their defining spec, imported traces as inline DSPTRC01 bytes, and
// builtin names need nothing.
func dispatchSpec(sp sweep.Point) (sweep.Point, error) {
	var scens []trace.ScenarioSpec
	seen := map[string]bool{}
	for _, name := range sp.Workloads {
		if seen[name] {
			continue
		}
		seen[name] = true
		s, ok, err := trace.SpecFor(name)
		if err != nil {
			return sweep.Point{}, err
		}
		if ok {
			scens = append(scens, s)
		}
	}
	sp.Scenarios = scens
	return sp, nil
}

type dispatchEvent struct {
	dpos   int // dispatcher position
	worker *fleetWorker
	res    *sim.Result
	class  string // empty on success; else the failure class/reason
	fault  bool   // count the failure against the worker's health
}

// executeOnFleet is the fleet's sweep.Executor: it dispatches a campaign's
// pending runs to s.fleet's workers under leases, retries failures through
// the Dispatcher, and drops a run's points once its attempts are exhausted.
func (s *Server) executeOnFleet(ctx context.Context, rs *sweep.Runs) (*sweep.FleetSummary, error) {
	cfg := *s.fleet
	keys := make([]string, rs.Len())
	for i := range keys {
		keys[i] = rs.Key(i)
	}
	disp := sweep.NewDispatcher(keys, sweep.DispatchConfig{
		MaxAttempts: cfg.MaxAttempts,
		LeaseTTL:    cfg.LeaseTTL,
		Seed:        cfg.DispatchSeed,
	})
	// Over-the-wire specs, built on first dispatch; retries reuse them.
	specs := make([]*sweep.Point, rs.Len())
	// fail is the one failure path: the run goes back to the pending set
	// while attempts remain, else its points drop with the reason.
	fail := func(dpos int, class string, now time.Time) error {
		if disp.Fail(dpos, now) {
			s.pointsRedispatched.Add(1)
			s.cfg.Logf("fleet: re-dispatching %s after %q (attempt %d)",
				shortKey(keys[dpos]), class, disp.Attempts(dpos))
			return nil
		}
		reason := fmt.Sprintf("max attempts (%d) exhausted: %s", cfg.MaxAttempts, class)
		s.cfg.Logf("fleet: dropping %s: %s", shortKey(keys[dpos]), reason)
		return rs.Drop(dpos, reason)
	}

	pool := newWorkerPool(cfg)
	onEject := func(url string) {
		s.workersEjected.Add(1)
		s.cfg.Logf("fleet: worker %s ejected from rotation", url)
	}

	// Health-gated membership: with a workers file the roster is reloaded
	// periodically — joiners enter pending (admitted by the next /readyz
	// probe, through the same machinery that re-admits ejected workers),
	// removals drain their in-flight leases and leave. A static -workers
	// list behaves exactly as before.
	reloadMembership := func(now time.Time) {
		urls, err := LoadWorkersFile(cfg.WorkersFile)
		if err != nil {
			s.cfg.Logf("fleet: workers file: %v (membership unchanged)", err)
			return
		}
		added, removed := pool.setMembership(urls, now)
		if added > 0 || removed > 0 {
			s.cfg.Logf("fleet: membership reload: %d joined (pending probe), %d draining", added, removed)
		}
	}
	if cfg.WorkersFile != "" {
		reloadMembership(time.Now())
		// Joiners admit through a probe; run one synchronously so a fresh
		// coordinator doesn't idle a whole probe interval before its first
		// dispatch.
		pool.probe(ctx, time.Now(), onEject)
	}

	var leases, sheds uint64
	// Every dispatch goroutine sends exactly one event; capacity covers the
	// maximum concurrency so a send never blocks a goroutine past campaign
	// abort. With a workers file the roster can grow mid-campaign, so the
	// buffer is padded generously.
	eventCap := len(cfg.Workers)*cfg.MaxInflight + 1
	if cfg.WorkersFile != "" {
		eventCap += 4096
	}
	events := make(chan dispatchEvent, eventCap)
	probeTick := time.NewTicker(cfg.ProbeInterval)
	defer probeTick.Stop()
	var reloadC <-chan time.Time
	if cfg.WorkersFile != "" {
		reloadTick := time.NewTicker(cfg.WorkersReload)
		defer reloadTick.Stop()
		reloadC = reloadTick.C
	}
	probeDone := make(chan struct{}, 1)
	probing := false
	var noWorkerSince time.Time

	// tryDispatch drains the ready set into available workers, returning the
	// earliest backoff wake-up (zero if none).
	tryDispatch := func(now time.Time) (time.Time, error) {
		for {
			dpos, ok, wake := disp.Next(now)
			if !ok {
				return wake, nil
			}
			if specs[dpos] == nil {
				sp, err := dispatchSpec(rs.Point(dpos))
				if err != nil {
					// The run cannot be made self-contained (e.g. an imported
					// trace over the forwarding size limit): burn attempts
					// through the unified failure path so the point drops
					// with a reason.
					disp.Lease(dpos, "(local)", now)
					if err := fail(dpos, "unforwardable workload: "+err.Error(), now); err != nil {
						return wake, err
					}
					continue
				}
				specs[dpos] = &sp
			}
			w := pool.pick(disp.LastWorker(dpos))
			if w == nil {
				// No worker has capacity. If the whole fleet is ejected past
				// the grace window, burn an attempt so the campaign degrades
				// to dropped points instead of wedging forever.
				if pool.healthyCount() > 0 {
					noWorkerSince = time.Time{}
					return wake, nil
				}
				if noWorkerSince.IsZero() {
					noWorkerSince = now
					return wake, nil
				}
				if now.Sub(noWorkerSince) < cfg.NoWorkerGrace {
					return wake, nil
				}
				disp.Lease(dpos, "(no worker)", now)
				if err := fail(dpos, "no healthy workers", now); err != nil {
					return wake, err
				}
				continue
			}
			noWorkerSince = time.Time{}
			deadline := disp.Lease(dpos, w.url, now)
			go dispatchRun(ctx, deadline, w, *specs[dpos], dpos, events)
		}
	}

	for rs.Open() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wake, err := tryDispatch(time.Now())
		if err != nil {
			return nil, err
		}
		var wakeC <-chan time.Time
		if !wake.IsZero() {
			d := time.Until(wake)
			if d < time.Millisecond {
				d = time.Millisecond
			}
			wakeC = time.After(d)
		}
		select {
		case ev := <-events:
			pool.release(ev.worker)
			now := time.Now()
			if ev.class == "" {
				pool.reportSuccess(ev.worker)
				if disp.Complete(ev.dpos) {
					if err := rs.Complete(ev.dpos, *ev.res); err != nil {
						return nil, err
					}
				}
				continue
			}
			switch ev.class {
			case classLeaseExpired:
				leases++
				s.leasesExpired.Add(1)
			case classShed:
				sheds++
			}
			if ev.fault {
				if pool.reportFailure(ev.worker, now) {
					onEject(ev.worker.url)
				}
			}
			if err := fail(ev.dpos, ev.class, now); err != nil {
				return nil, err
			}
		case <-probeTick.C:
			if !probing {
				probing = true
				go func() {
					pool.probe(ctx, time.Now(), onEject)
					probeDone <- struct{}{}
				}()
			}
		case <-probeDone:
			probing = false
		case <-reloadC:
			reloadMembership(time.Now())
		case <-wakeC:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	dc := disp.Counters()
	return &sweep.FleetSummary{
		Workers:        pool.memberCount(),
		Dispatches:     dc.Dispatches,
		Redispatches:   dc.Redispatches,
		LeasesExpired:  leases,
		ShedRejections: sheds,
		WorkersEjected: pool.ejectedTotal(),
	}, nil
}

// dispatchRun executes one leased run on one worker under the lease
// deadline, classifying the outcome into the unified failure taxonomy. It
// sends exactly one event.
func dispatchRun(parent context.Context, deadline time.Time, w *fleetWorker, spec sweep.Point, dpos int, events chan<- dispatchEvent) {
	ctx, cancel := context.WithDeadline(parent, deadline)
	defer cancel()
	res, err := runOnWorker(ctx, w.client, spec)
	ev := dispatchEvent{dpos: dpos, worker: w}
	switch {
	case err == nil:
		ev.res = res
	case parent.Err() != nil:
		ev.class = "campaign aborted"
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		// The dispatch outlived its lease: the goroutine itself reports the
		// expiry — no separate lease scanner, no double accounting.
		ev.class = classLeaseExpired
		ev.fault = true
	default:
		var ae *APIError
		if errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable {
			// Load shedding is deliberate back-pressure, not sickness: the
			// run goes elsewhere but the worker's health is untouched.
			ev.class = classShed
		} else {
			ev.class = "worker error: " + err.Error()
			ev.fault = true
		}
	}
	events <- ev
}

// runOnWorker submits spec to the worker and waits for the terminal job,
// returning the simulation result.
func runOnWorker(ctx context.Context, c *Client, spec sweep.Point) (*sim.Result, error) {
	jv, err := c.SubmitRun(ctx, spec)
	if err != nil {
		return nil, err
	}
	jv, err = c.Wait(ctx, jv.ID)
	if err != nil {
		return nil, err
	}
	switch jv.Status {
	case StatusDone:
	case StatusFailed:
		return nil, fmt.Errorf("worker job failed: %s", jv.Error)
	default:
		return nil, fmt.Errorf("worker job ended %s", jv.Status)
	}
	var res sim.Result
	// Go's shortest-round-trip float encoding makes this lossless: the
	// decoded result is bit-identical to the worker's, so fleet streams
	// match local ones byte for byte.
	if err := json.Unmarshal(jv.Result, &res); err != nil {
		return nil, fmt.Errorf("worker result: %w", err)
	}
	return &res, nil
}

func shortKey(key string) string {
	if len(key) > 48 {
		return key[:48] + "…"
	}
	return key
}
