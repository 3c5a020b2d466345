package memsys

import (
	"math/rand"
	"testing"

	"dspatch/internal/memaddr"
)

// TestMSHRRingMatchesLinearScan drives an mshrRing and a plain
// completion-time slice through the same randomized operation sequence —
// claims, patches, direct writes and free-slot queries at jittering
// (occasionally decreasing) cycles — and checks every query answer against
// the reference linear scan.
func TestMSHRRingMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(32)
		ring := newMSHRRing(n)
		ref := make([]uint64, n)
		refIdx := 0
		now := uint64(1000)
		for step := 0; step < 2000; step++ {
			// Jitter time, occasionally backwards (ports are not monotone).
			if rng.Intn(10) == 0 && now > 500 {
				now -= uint64(rng.Intn(400))
			} else {
				now += uint64(rng.Intn(60))
			}
			switch rng.Intn(3) {
			case 0: // round-robin claim + patch, as a demand miss does
				done := now + uint64(rng.Intn(500))
				start := ring.claim(now, 0)
				wantStart := now
				if ref[refIdx] > now {
					wantStart = ref[refIdx]
				}
				ref[refIdx] = 0
				refIdx = (refIdx + 1) % n
				if start != wantStart {
					t.Fatalf("trial %d step %d: claim start %d, want %d", trial, step, start, wantStart)
				}
				ring.patchLast(done)
				i := refIdx - 1
				if i < 0 {
					i = n - 1
				}
				ref[i] = done
			case 1: // free-slot query, as the prefetch drain does
				reserve := rng.Intn(5)
				got := ring.freeReserve(now, reserve)
				want := freeMSHRReserve(ref, now, reserve)
				if got != want {
					t.Fatalf("trial %d step %d: freeReserve(now=%d, reserve=%d) = %d, want %d (ref %v)",
						trial, step, now, reserve, got, want, ref)
				}
				if got >= 0 {
					done := now + uint64(rng.Intn(500))
					ring.set(got, done)
					ref[got] = done
				}
			case 2: // direct write, as a prefetch issue does
				i := rng.Intn(n)
				v := now + uint64(rng.Intn(300))
				ring.set(i, v)
				ref[i] = v
			}
		}
	}
}

// freeMSHRReserve is the linear-scan oracle for mshrRing.freeReserve: the
// index of the first slot free at cycle now, provided at least reserve+1
// slots are free (the reserve stays available to demands); -1 otherwise.
func freeMSHRReserve(ring []uint64, now uint64, reserve int) int {
	free, first := 0, -1
	for i, t := range ring {
		if t <= now {
			free++
			if first < 0 {
				first = i
			}
			if free > reserve {
				return first
			}
		}
	}
	return -1
}

// TestInflightTableMatchesMap drives the open-addressed table and a plain
// map through the same randomized insert/lookup/prune sequence and checks
// they expose identical contents throughout, including after prunes at
// arbitrary cycles.
func TestInflightTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var tab inflightTable
	tab.init()
	ref := map[memaddr.Line]uint64{} // line -> ready cycle
	now := uint64(0)
	lineOf := func() memaddr.Line { return memaddr.Line(rng.Intn(6000)) }
	for step := 0; step < 200_000; step++ {
		now += uint64(rng.Intn(20))
		switch rng.Intn(4) {
		case 0, 1:
			l := lineOf()
			ready := now + uint64(rng.Intn(2000))
			tab.insert(l, ready)
			ref[l] = ready
		case 2:
			l := lineOf()
			got, ok := tab.lookup(l)
			want, wantOK := ref[l]
			if ok != wantOK || got != want {
				t.Fatalf("step %d: lookup(%d) = %d,%v want %d,%v", step, l, got, ok, want, wantOK)
			}
		case 3:
			// Mirror the port's prune rule on both sides.
			if len(ref) >= inflightPrune {
				tab.prune(now)
				for l, ready := range ref {
					if ready <= now {
						delete(ref, l)
					}
				}
			}
		}
	}
	// Final sweep: every surviving key matches.
	for l, want := range ref {
		got, ok := tab.lookup(l)
		if !ok || got != want {
			t.Fatalf("final: lookup(%d) = %d,%v want %d,true", l, got, ok, want)
		}
	}
	if tab.occupied < len(ref) {
		t.Fatalf("occupied %d < live entries %d", tab.occupied, len(ref))
	}
}

// TestInflightTableGrowsUnderPruneFreeStreak models a phase where prefetch
// coverage is perfect — no demand DRAM misses, so the prune never fires —
// and thousands of distinct live records accumulate. The table must grow
// gracefully (as the map it replaced did) and keep every record findable.
func TestInflightTableGrowsUnderPruneFreeStreak(t *testing.T) {
	var tab inflightTable
	tab.init()
	const n = 3 * inflightSlots
	for i := 0; i < n; i++ {
		tab.insert(memaddr.Line(i*64+7), 1<<60+uint64(i))
	}
	if len(tab.lines) <= inflightSlots {
		t.Fatalf("table did not grow: %d slots for %d live records", len(tab.lines), n)
	}
	for i := 0; i < n; i++ {
		ready, ok := tab.lookup(memaddr.Line(i*64 + 7))
		if !ok || ready != 1<<60+uint64(i) {
			t.Fatalf("record %d lost or corrupted after growth: ready %d ok=%v", i, ready, ok)
		}
	}
	// A prune at a later cycle still clears everything completed.
	tab.prune(1<<60 + n)
	if tab.occupied != 0 {
		t.Errorf("prune after growth left %d records", tab.occupied)
	}
}
