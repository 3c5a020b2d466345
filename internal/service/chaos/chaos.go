// Package chaos is the fleet's deterministic fault-injection layer: an HTTP
// middleware that makes a worker daemon misbehave on schedule. The
// acceptance tests and the CI chaos-smoke job wrap workers in it to prove
// the coordinator's failure paths — dead workers, hung requests, load
// shedding, plain errors — against reproducible fault sequences instead of
// hoping real infrastructure fails on cue.
//
// Faults trigger off a deterministic event: the Nth simulation-dispatch
// request (POST /v1/runs) the wrapped worker receives. Dispatch order from a
// coordinator is not fully deterministic, but the Nth-dispatch trigger is
// independent of which points arrive: the fault always fires, and always at
// a comparable depth into the run.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
)

// Fault kinds.
const (
	// KindKill makes the worker drop dead at the trigger: the triggering
	// request and every request after it (health probes included) have their
	// connections closed without a response, exactly what a crashed process
	// looks like from the coordinator's side.
	KindKill = "kill"
	// KindTimeout holds the triggering request open, never answering, until
	// the client gives up — a hung worker; the dispatch lease expires.
	KindTimeout = "timeout"
	// KindShed answers Count requests (default 1) with 503 + Retry-After —
	// a load-shedding burst.
	KindShed = "shed"
	// KindError answers the triggering request with a 500.
	KindError = "error"
	// KindCrash hard-exits the whole process at the trigger (exit code 137,
	// what a SIGKILLed process reports) — unlike KindKill, which only plays
	// dead at the HTTP layer, this is a real crash the daemon's write-ahead
	// journal must survive. With On="point" the trigger is the Nth campaign
	// point record the daemon emits (armed via dspatchd, not this
	// middleware): the coordinator crash-kill scenario.
	KindCrash = "crash"
)

// Fault trigger events (the On field).
const (
	// OnDispatch (the default) counts POST /v1/runs requests on the wrapped
	// worker.
	OnDispatch = "dispatch"
	// OnPoint counts campaign point records emitted by the daemon itself.
	// Only valid with KindCrash; the daemon arms it outside the middleware
	// (see dspatchd -chaos-file and service.Config.CrashAfterPoints), so the
	// crash lands at a deterministic depth into the campaign stream — after
	// the point was journaled, the worst instant a real crash could pick.
	OnPoint = "point"
)

// Fault is one scheduled misbehavior.
type Fault struct {
	// Worker selects which worker the fault applies to, matched against the
	// label the middleware was built with; empty matches every worker.
	Worker string `json:"worker,omitempty"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// At is the 1-based ordinal of the trigger event (dispatch count by
	// default; campaign point count with On="point") that fires the fault.
	At int `json:"at"`
	// Count extends KindShed to a burst of consecutive 503s (default 1).
	Count int `json:"count,omitempty"`
	// On selects the trigger event: OnDispatch (default) or OnPoint
	// (KindCrash only).
	On string `json:"on,omitempty"`
}

// Schedule is a set of faults, typically loaded from a -chaos-file.
type Schedule struct {
	Faults []Fault `json:"faults"`
}

// Validate rejects malformed schedules before a daemon arms them.
func (s *Schedule) Validate() error {
	for i, f := range s.Faults {
		switch f.Kind {
		case KindKill, KindTimeout, KindShed, KindError, KindCrash:
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %q", i, f.Kind)
		}
		switch f.On {
		case "", OnDispatch:
		case OnPoint:
			if f.Kind != KindCrash {
				return fmt.Errorf("chaos: fault %d: on=%q is only valid with kind %q", i, OnPoint, KindCrash)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown trigger %q", i, f.On)
		}
		if f.At <= 0 {
			return fmt.Errorf("chaos: fault %d: at must be >= 1, got %d", i, f.At)
		}
		if f.Count < 0 {
			return fmt.Errorf("chaos: fault %d: count must be non-negative, got %d", i, f.Count)
		}
	}
	return nil
}

// PointCrash returns the At ordinal of the first point-triggered crash
// fault matching worker (0 when there is none) — the value a daemon feeds
// into its CrashAfterPoints hook.
func (s *Schedule) PointCrash(worker string) int {
	for _, f := range s.Faults {
		if f.Kind == KindCrash && f.On == OnPoint && (f.Worker == "" || f.Worker == worker) {
			return f.At
		}
	}
	return 0
}

// Load reads a schedule from a JSON file.
func Load(path string) (*Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Injector wraps one worker's handler with the schedule's faults for that
// worker.
type Injector struct {
	worker string
	next   http.Handler

	// ExitFn is what a dispatch-triggered KindCrash calls (default
	// os.Exit(137)); tests override it.
	ExitFn func()

	mu       sync.Mutex
	faults   []Fault
	dispatch int  // POST /v1/runs ordinal
	killed   bool // KindKill fired: every request is now blackholed
	shedding int  // remaining KindShed burst
}

// NewInjector builds the middleware for a worker labeled worker, applying
// the schedule's matching faults around next. Point-triggered faults are
// skipped: they are armed inside the daemon (see Schedule.PointCrash), not
// at the HTTP layer.
func NewInjector(s *Schedule, worker string, next http.Handler) *Injector {
	inj := &Injector{worker: worker, next: next, ExitFn: func() { os.Exit(137) }}
	for _, f := range s.Faults {
		if (f.Worker == "" || f.Worker == worker) && f.On != OnPoint {
			inj.faults = append(inj.faults, f)
		}
	}
	return inj
}

// ServeHTTP applies due faults, else forwards to the worker.
func (inj *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	isDispatch := r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/runs")

	inj.mu.Lock()
	if inj.killed {
		inj.mu.Unlock()
		blackhole(w)
		return
	}
	if isDispatch {
		inj.dispatch++
		for i, f := range inj.faults {
			if f.At != inj.dispatch {
				continue
			}
			// Consume the fault (At can only match once, but keep the list
			// tidy for debugging).
			inj.faults = append(inj.faults[:i:i], inj.faults[i+1:]...)
			switch f.Kind {
			case KindKill:
				inj.killed = true
				inj.mu.Unlock()
				blackhole(w)
				return
			case KindTimeout:
				inj.mu.Unlock()
				// Hold the request open until the dispatcher abandons it
				// (lease deadline) — a hung worker, not a dead one. Drain
				// the body first: the server only watches for a client
				// disconnect once the request body is consumed, and a worker
				// that hangs mid-simulation read its request too.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
				blackhole(w)
				return
			case KindShed:
				n := f.Count
				if n <= 0 {
					n = 1
				}
				inj.shedding = n
			case KindError:
				inj.mu.Unlock()
				http.Error(w, `{"error":"chaos: injected worker error"}`, http.StatusInternalServerError)
				return
			case KindCrash:
				inj.mu.Unlock()
				inj.ExitFn()
				// Tests override ExitFn with a non-exiting stub; behave like
				// a kill from here on so the harness still sees a dead worker.
				inj.mu.Lock()
				inj.killed = true
				inj.mu.Unlock()
				blackhole(w)
				return
			}
			break
		}
		if inj.shedding > 0 {
			inj.shedding--
			inj.mu.Unlock()
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"chaos: injected load shed"}`, http.StatusServiceUnavailable)
			return
		}
	}
	inj.mu.Unlock()
	inj.next.ServeHTTP(w, r)
}

// blackhole terminates the connection without writing a response: the client
// observes EOF, indistinguishable from a process that died mid-request.
func blackhole(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	// No hijack support (HTTP/2, test recorders): the closest approximation
	// is an abrupt 502 with no body contract.
	w.WriteHeader(http.StatusBadGateway)
}
