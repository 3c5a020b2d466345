package sweep

import (
	"testing"
	"time"
)

func newTestDispatcher(n int, cfg DispatchConfig) *Dispatcher {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = string(rune('a' + i))
	}
	return NewDispatcher(keys, cfg)
}

func TestDispatcherHappyPath(t *testing.T) {
	d := newTestDispatcher(3, DispatchConfig{})
	now := time.Unix(1000, 0)
	for want := 0; want < 3; want++ {
		pos, ok, _ := d.Next(now)
		if !ok || pos != want {
			t.Fatalf("Next = (%d, %v), want (%d, true)", pos, ok, want)
		}
		deadline := d.Lease(pos, "w0", now)
		if got := deadline.Sub(now); got != 60*time.Second {
			t.Fatalf("default lease TTL = %v, want 60s", got)
		}
		if !d.Complete(pos) {
			t.Fatalf("Complete(%d) = false", pos)
		}
	}
	if pos, ok, wake := d.Next(now); ok || !wake.IsZero() {
		t.Fatalf("Next = (%d, %v, %v) after completing all, want nothing pending", pos, ok, wake)
	}
	c := d.Counters()
	if c.Dispatches != 3 || c.Redispatches != 0 || c.Drops != 0 {
		t.Fatalf("counters = %+v, want 3/0/0", c)
	}
}

func TestDispatcherRetryThenDrop(t *testing.T) {
	cfg := DispatchConfig{MaxAttempts: 3, BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second}
	d := newTestDispatcher(1, cfg)
	now := time.Unix(1000, 0)

	for attempt := 1; attempt <= 3; attempt++ {
		pos, ok, wake := d.Next(now)
		if !ok {
			// Backoff gate: not ready yet. Jump to the wake time.
			if wake.IsZero() || !wake.After(now) {
				t.Fatalf("attempt %d: not ready but wake=%v (now=%v)", attempt, wake, now)
			}
			now = wake
			pos, ok, _ = d.Next(now)
			if !ok {
				t.Fatalf("attempt %d: still not ready at wake time", attempt)
			}
		}
		if pos != 0 {
			t.Fatalf("attempt %d: pos = %d", attempt, pos)
		}
		d.Lease(pos, "w0", now)
		if got := d.Attempts(pos); got != attempt {
			t.Fatalf("Attempts = %d, want %d", got, attempt)
		}
		retry := d.Fail(pos, now)
		if attempt < 3 && !retry {
			t.Fatalf("attempt %d: Fail reported no retry with attempts left", attempt)
		}
		if attempt == 3 && retry {
			t.Fatalf("attempt 3: Fail reported retry past MaxAttempts")
		}
	}
	// Dropped is terminal: nothing pending, no backoff gate, and a late
	// result or failure for the position changes nothing.
	if pos, ok, wake := d.Next(now.Add(time.Hour)); ok || !wake.IsZero() {
		t.Fatalf("Next = (%d, %v, %v) after drop, want nothing pending", pos, ok, wake)
	}
	if d.Complete(0) || d.Fail(0, now) {
		t.Fatal("dropped position accepted a late Complete/Fail")
	}
	if got := d.Attempts(0); got != 3 {
		t.Fatalf("Attempts after drop = %d, want 3", got)
	}
	c := d.Counters()
	if c.Dispatches != 3 || c.Redispatches != 2 || c.Drops != 1 {
		t.Fatalf("counters = %+v, want 3/2/1", c)
	}
}

func TestDispatcherBackoffBoundsAndDeterminism(t *testing.T) {
	cfg := DispatchConfig{MaxAttempts: 8, BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second, Seed: 7}
	mkSchedule := func() []time.Duration {
		d := newTestDispatcher(1, cfg)
		now := time.Unix(1000, 0)
		var gaps []time.Duration
		for {
			pos, ok, wake := d.Next(now)
			if !ok {
				if wake.IsZero() {
					break // dropped
				}
				gaps = append(gaps, wake.Sub(now))
				now = wake
				continue
			}
			d.Lease(pos, "w0", now)
			d.Fail(pos, now)
		}
		return gaps
	}
	a, b := mkSchedule(), mkSchedule()
	if len(a) != cfg.MaxAttempts-1 {
		t.Fatalf("got %d backoff gaps, want %d", len(a), cfg.MaxAttempts-1)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: gap %d = %v vs %v", i, a[i], b[i])
		}
		// Nominal delay for retry i+1 is base*2^i capped at max; jitter keeps
		// the actual gap within [0.75, 1.25) of it.
		nominal := cfg.BackoffBase << i
		if nominal > cfg.BackoffMax {
			nominal = cfg.BackoffMax
		}
		lo := time.Duration(float64(nominal) * 0.75)
		hi := time.Duration(float64(nominal) * 1.25)
		if a[i] < lo || a[i] >= hi {
			t.Fatalf("gap %d = %v outside jitter bounds [%v, %v)", i, a[i], lo, hi)
		}
	}
	// A different seed must shift at least one gap.
	cfg.Seed = 8
	c := mkSchedule()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed change did not perturb the jitter schedule")
	}
}

func TestDispatcherLateResultAfterExpiry(t *testing.T) {
	// A lease expires, the position is redispatched and completed elsewhere;
	// the original worker's late Complete/Fail must be a no-op.
	d := newTestDispatcher(1, DispatchConfig{BackoffBase: time.Millisecond})
	now := time.Unix(1000, 0)
	pos, _, _ := d.Next(now)
	d.Lease(pos, "w0", now)
	if retry := d.Fail(pos, now); !retry {
		t.Fatal("first failure should retry")
	}
	now = now.Add(time.Second)
	pos2, ok, _ := d.Next(now)
	if !ok || pos2 != pos {
		t.Fatalf("redispatch Next = (%d, %v)", pos2, ok)
	}
	d.Lease(pos2, "w1", now)
	if d.LastWorker(pos) != "w1" {
		t.Fatalf("LastWorker = %q, want w1", d.LastWorker(pos))
	}
	if !d.Complete(pos) {
		t.Fatal("Complete on w1's lease failed")
	}
	// Late arrivals from the expired w0 dispatch:
	if d.Complete(pos) {
		t.Fatal("double Complete accepted")
	}
	if d.Fail(pos, now) {
		t.Fatal("Fail after completion reported retry")
	}
	if _, ok, wake := d.Next(now.Add(time.Hour)); ok || !wake.IsZero() {
		t.Fatal("completed position still pending after late no-ops")
	}
	if c := d.Counters(); c.Dispatches != 2 || c.Redispatches != 1 || c.Drops != 0 {
		t.Fatalf("counters = %+v after late no-ops, want 2/1/0", c)
	}
}

func TestDispatcherNextPrefersLowestReady(t *testing.T) {
	d := newTestDispatcher(3, DispatchConfig{BackoffBase: time.Hour, BackoffMax: time.Hour})
	now := time.Unix(1000, 0)
	// Lease 0 and fail it (backing off an hour); 1 and 2 stay ready.
	pos, _, _ := d.Next(now)
	d.Lease(pos, "w0", now)
	d.Fail(pos, now)
	pos, ok, _ := d.Next(now)
	if !ok || pos != 1 {
		t.Fatalf("Next = (%d, %v), want (1, true)", pos, ok)
	}
	d.Lease(1, "w0", now)
	pos, ok, _ = d.Next(now)
	if !ok || pos != 2 {
		t.Fatalf("Next = (%d, %v), want (2, true)", pos, ok)
	}
	d.Lease(2, "w0", now)
	// Nothing ready; position 0 gates an hour out.
	pos, ok, wake := d.Next(now)
	if ok || pos != -1 {
		t.Fatalf("Next = (%d, %v), want nothing ready", pos, ok)
	}
	if wake.IsZero() || wake.Sub(now) < 45*time.Minute {
		t.Fatalf("wake = %v, want ~1h out", wake.Sub(now))
	}
}
