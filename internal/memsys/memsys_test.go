package memsys

import (
	"testing"

	"dspatch/internal/cache"
	"dspatch/internal/dram"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
)

func newSys(l2pf func() prefetch.Prefetcher) *System {
	cfg := DefaultConfig(2 << 20)
	return NewSystem(cfg, dram.New(dram.DDR4(1, 2133)), 1, nil, l2pf)
}

func TestL1HitLatency(t *testing.T) {
	s := newSys(nil)
	p := s.Port(0)
	p.Access(0, 1, 100, false) // cold miss fills everything
	done := p.Access(100000, 1, 100, false)
	if lat := done - 100000; lat != 5 {
		t.Errorf("L1 hit latency = %d, want 5", lat)
	}
}

func TestL2HitLatency(t *testing.T) {
	s := newSys(nil)
	p := s.Port(0)
	p.Access(0, 1, 100, false)
	// Evict line 100 from L1 (8 ways × 64 sets: fill 9 conflicting lines).
	// L1 sets = 32KB/64/8 = 64 → lines congruent mod 64.
	for i := 1; i <= 8; i++ {
		p.Access(uint64(i*1000), 1, memaddr.Line(100+i*64), false)
	}
	done := p.Access(500000, 1, 100, false)
	if lat := done - 500000; lat != 13 {
		t.Errorf("L2 hit latency = %d, want 13", lat)
	}
}

func TestMemoryLatencyRealistic(t *testing.T) {
	s := newSys(nil)
	p := s.Port(0)
	done := p.Access(0, 1, 12345, false)
	// LLC lookup 43 + tRCD+tCL+burst (135) = 178.
	if done < 150 || done > 250 {
		t.Errorf("cold memory latency = %d, want ≈178", done)
	}
	if p.Stats().Uncovered != 1 || p.Stats().DemandDRAM != 1 {
		t.Errorf("stats = %+v", p.Stats())
	}
}

// nextLinePF prefetches line+1 on every training event.
type nextLinePF struct{}

func (nextLinePF) Name() string     { return "next" }
func (nextLinePF) StorageBits() int { return 0 }
func (nextLinePF) Train(a prefetch.Access, _ prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	return append(dst, prefetch.Request{Line: a.Line + 1})
}

func TestPrefetchCoverageAccounting(t *testing.T) {
	s := newSys(func() prefetch.Prefetcher { return nextLinePF{} })
	p := s.Port(0)
	now := uint64(0)
	// Sequential stream: after warmup every miss prefetches the next line.
	for i := 0; i < 100; i++ {
		done := p.Access(now, 1, memaddr.Line(i), false)
		now = done + 100
	}
	st := p.Stats()
	if st.Covered == 0 {
		t.Fatalf("next-line prefetcher covered nothing: %+v", st)
	}
	if st.PrefetchDRAM == 0 {
		t.Error("prefetches should have consumed DRAM bandwidth")
	}
	if cov := float64(st.Covered) / float64(st.Covered+st.Uncovered); cov < 0.5 {
		t.Errorf("coverage = %.2f, want > 0.5 on a stream", cov)
	}
}

func TestPrefetchedLineFasterThanMemory(t *testing.T) {
	s := newSys(func() prefetch.Prefetcher { return nextLinePF{} })
	p := s.Port(0)
	p.Access(0, 1, 10, false) // miss; prefetches line 11
	// Give the prefetch time to land, then demand line 11.
	done := p.Access(5000, 1, 11, false)
	lat := done - 5000
	if lat > 50 {
		t.Errorf("prefetched line latency = %d, want on-die hit", lat)
	}
}

func TestInFlightMergeLatency(t *testing.T) {
	s := newSys(func() prefetch.Prefetcher { return nextLinePF{} })
	p := s.Port(0)
	p.Access(0, 1, 10, false) // prefetch for 11 departs around cycle 43
	// Demand line 11 immediately: it should wait for the in-flight data,
	// not pay a fresh memory access, and not hit instantly either.
	done := p.Access(50, 1, 11, false)
	lat := done - 50
	if lat < 14 {
		t.Errorf("in-flight merge too fast (%d cycles): data cannot have arrived", lat)
	}
	if lat > 300 {
		t.Errorf("in-flight merge too slow (%d cycles): paid a second memory trip?", lat)
	}
	if p.Stats().Covered != 1 {
		t.Errorf("merged prefetch should count covered: %+v", p.Stats())
	}
}

func TestUnusedPrefetchesCounted(t *testing.T) {
	s := newSys(func() prefetch.Prefetcher { return nextLinePF{} })
	p := s.Port(0)
	// Touch scattered lines; the +1 prefetches are never used.
	for i := 0; i < 50; i++ {
		p.Access(uint64(i*10000), 1, memaddr.Line(i*1000), false)
	}
	if p.UnusedPrefetches() == 0 {
		t.Error("scattered accesses should strand prefetches unused")
	}
	if p.UsefulPrefetches() != 0 {
		t.Errorf("no prefetch should be useful here, got %d", p.UsefulPrefetches())
	}
}

func TestWritebackTraffic(t *testing.T) {
	s := newSys(nil)
	p := s.Port(0)
	// Dirty a line, then evict it from every level via conflict pressure.
	p.Access(0, 1, 100, true)
	now := uint64(10000)
	// LLC: 2MB/64B/16 = 2048 sets; conflicting lines stride 2048.
	for i := 1; i <= 40; i++ {
		p.Access(now, 1, memaddr.Line(100+i*2048), false)
		now += 10000
	}
	if p.Stats().Writebacks == 0 {
		t.Error("dirty eviction should write back to DRAM")
	}
}

func TestMSHRBackpressure(t *testing.T) {
	// With 16 L1 MSHRs, the 17th concurrent miss must start later than the
	// first 16.
	s := newSys(nil)
	p := s.Port(0)
	var dones []uint64
	for i := 0; i < 17; i++ {
		dones = append(dones, p.Access(0, 1, memaddr.Line(i*977), false))
	}
	max16 := uint64(0)
	for _, d := range dones[:16] {
		if d > max16 {
			max16 = d
		}
	}
	if dones[16] <= max16 {
		// The 17th should have queued behind an MSHR (it may still finish
		// earlier than the slowest of the 16 due to bank luck, so compare
		// against the fastest instead).
		min16 := dones[0]
		for _, d := range dones[:16] {
			if d < min16 {
				min16 = d
			}
		}
		if dones[16] <= min16 {
			t.Errorf("17th miss (%d) did not queue behind MSHRs (min16 %d)", dones[16], min16)
		}
	}
}

func TestLowPriorityPrefetchFill(t *testing.T) {
	lp := func() prefetch.Prefetcher { return lowPriPF{} }
	s := newSys(lp)
	p := s.Port(0)
	p.Access(0, 1, 0, false)
	// The prefetched line (1) should be in L2 at LRU: a burst of conflicting
	// fills evicts it before older normal lines.
	if !p.L2().Probe(1) {
		t.Fatal("prefetch did not fill L2")
	}
}

type lowPriPF struct{}

func (lowPriPF) Name() string     { return "lowpri" }
func (lowPriPF) StorageBits() int { return 0 }
func (lowPriPF) Train(a prefetch.Access, _ prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	return append(dst, prefetch.Request{Line: a.Line + 1, LowPriority: true})
}

func TestMultiCoreSharedLLC(t *testing.T) {
	cfg := DefaultConfig(8 << 20)
	s := NewSystem(cfg, dram.New(dram.DDR4(2, 2133)), 4, nil, nil)
	if s.Port(0) == s.Port(1) {
		t.Fatal("ports must be distinct")
	}
	// Core 0 fetches a line; core 1 gets an LLC hit on it (shared LLC).
	s.Port(0).Access(0, 1, 777, false)
	done := s.Port(1).Access(100000, 1, 777, false)
	if lat := done - 100000; lat != 43 {
		t.Errorf("cross-core LLC hit latency = %d, want 43", lat)
	}
}

func TestPollutionTaxonomy(t *testing.T) {
	cfg := DefaultConfig(64 << 10) // tiny LLC to force evictions
	cfg.LLC = cache.Config{Name: "LLC", SizeBytes: 64 << 10, Ways: 4}
	s := NewSystem(cfg, dram.New(dram.DDR4(1, 2133)), 1, nil,
		func() prefetch.Prefetcher { return nextLinePF{} })
	var instr uint64
	tr := s.EnablePollutionTracking(func() uint64 { return instr })
	p := s.Port(0)
	now := uint64(0)
	for i := 0; i < 4000; i++ {
		instr += 100
		p.Access(now, 1, memaddr.Line(i*17%3000), false)
		now += 500
	}
	n, pb, b := tr.Finish()
	if n+pb+b == 0 {
		t.Fatal("no victims classified despite a thrashing LLC")
	}
	fn, fp, fb := tr.Fractions()
	if fn+fp+fb < 0.99 {
		t.Errorf("fractions do not sum to 1: %v %v %v", fn, fp, fb)
	}
}

// TestDrainSkipSeesSameCycleL2Fill checks the blocked-drain skip against a
// drain that never skips. The queue's head is a line that is dirty in the
// L1 only, and every L2 MSHR is busy, so the drain blocks on it. A demand at
// the same cycle then hits the L2 and its L1 fill evicts the head's line,
// writing it back into the L2. That changes only the port's generation, not
// the system's: the next drain at that cycle must still find the line
// L2-resident and retire the entry.
func TestDrainSkipSeesSameCycleL2Fill(t *testing.T) {
	const now = 1000
	drain := func(skip bool) (head int, l2 bool) {
		s := newSys(nil)
		p := s.Port(0)
		// L1 sets = 64: lines congruent mod 64 share one. v is filled first,
		// so it is its set's LRU way once the other seven ways are filled.
		v := memaddr.Line(100)
		p.l1.Fill(v, cache.FillOpts{Dirty: true})
		for i := 1; i < 8; i++ {
			p.l1.Fill(v+memaddr.Line(i*64), cache.FillOpts{})
		}
		d := v + 8*64
		p.l2.Fill(d, cache.FillOpts{})
		for i := 0; i < s.cfg.L2MSHRs; i++ {
			p.l2mshr.claim(0, 1<<40)
		}
		p.pq = append(p.pq, queuedPrefetch{req: prefetch.Request{Line: v}})
		p.drainPrefetchQueue(now)
		if !p.drainBlocked || p.pqHead != 0 {
			t.Fatalf("drain with every L2 MSHR busy: blocked %v, head %d; want blocked at 0", p.drainBlocked, p.pqHead)
		}
		gen := p.sys.gen
		p.Access(now, 1, d, false)
		if p.sys.gen != gen {
			t.Fatal("the L2-hit demand changed the system generation")
		}
		if !skip {
			p.drainBlocked = false
		}
		p.drainPrefetchQueue(now)
		return p.pqHead, p.l2.Probe(v)
	}
	wantHead, resident := drain(false)
	if !resident || wantHead != 1 {
		t.Fatalf("without the skip: head %d, line L2-resident %v; want the entry retired as L2-resident", wantHead, resident)
	}
	if head, _ := drain(true); head != wantHead {
		t.Errorf("the skip left the queue head at %d; a drain that never skips moves it to %d", head, wantHead)
	}
}
