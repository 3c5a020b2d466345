// Package memsys composes the simulated memory system: per-core private L1
// and L2 caches, a shared last-level cache, and DRAM. It owns all the timing
// the cache tag stores do not: hit latencies, MSHR occupancy, in-flight miss
// merging, prefetch issue (L1 stride prefetcher trained on L1 accesses; the
// evaluated L2 prefetcher trained on L1 misses, filling L2 and LLC per the
// paper's §4.1), write-back traffic, and the coverage/accuracy accounting
// behind the paper's Fig. 16.
package memsys

import (
	"dspatch/internal/bitpattern"
	"dspatch/internal/cache"
	"dspatch/internal/dram"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
)

// Config sizes the hierarchy. Latencies are cumulative round trips from the
// core, matching the paper's Table 2 access latencies.
type Config struct {
	L1  cache.Config
	L2  cache.Config
	LLC cache.Config

	L1HitLat  uint64
	L2HitLat  uint64
	LLCHitLat uint64

	L1MSHRs int
	L2MSHRs int

	// MaxPrefetchesPerTrain caps how many candidates one training event may
	// issue (queue backpressure).
	MaxPrefetchesPerTrain int
}

// DefaultConfig returns the paper's Table 2 hierarchy for the given core
// count and LLC capacity (2MB single-thread, 8MB shared for 4 cores).
func DefaultConfig(llcBytes int) Config {
	return Config{
		L1:  cache.Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8},
		L2:  cache.Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8},
		LLC: cache.Config{Name: "LLC", SizeBytes: llcBytes, Ways: 16, DeadBlockAware: true},

		L1HitLat:  5,
		L2HitLat:  13, // 5 + 8
		LLCHitLat: 43, // 5 + 8 + 30

		L1MSHRs: 16,
		L2MSHRs: 32,

		MaxPrefetchesPerTrain: 48,
	}
}

// CoverageStats is the per-core accounting behind Fig. 16.
type CoverageStats struct {
	L1Accesses uint64
	L1Misses   uint64 // = L2 demand accesses

	Covered   uint64 // demand first-uses of prefetched lines (L2 or LLC, incl. in-flight merges)
	Uncovered uint64 // demand fetches that went to DRAM unaided

	PrefetchDRAM   uint64 // L2-prefetcher fetches that consumed DRAM bandwidth
	PrefetchDRAML1 uint64 // L1-prefetcher fetches that consumed DRAM bandwidth
	PrefetchLLC    uint64 // prefetches satisfied from the LLC
	PrefetchDrop   uint64 // dropped: duplicate, in-flight or MSHR-full

	DemandDRAM uint64
	Writebacks uint64
}

// System is one simulated machine: shared LLC + DRAM plus per-core ports.
type System struct {
	cfg   Config
	dram  *dram.DRAM
	llc   *cache.Cache
	ports []*Port

	// gen counts mutations of shared state (LLC residency, DRAM bus/bank
	// timing) so a port can tell whether anything a blocked prefetch drain
	// depends on might have changed. See drainPrefetchQueue.
	gen uint64

	pollution *PollutionTracker // nil unless enabled
}

// NewSystem builds a machine with the given number of cores. Prefetcher
// factories may be nil for no prefetching at that level.
func NewSystem(cfg Config, d *dram.DRAM, cores int, l1pf, l2pf func() prefetch.Prefetcher) *System {
	s := &System{cfg: cfg, dram: d, llc: cache.New(cfg.LLC)}
	for i := 0; i < cores; i++ {
		p := &Port{
			sys: s,
			l1:  cache.New(cfg.L1),
			l2:  cache.New(cfg.L2),

			l1mshr: newMSHRRing(cfg.L1MSHRs),
			l2mshr: newMSHRRing(cfg.L2MSHRs),

			// Steady-state buffers sized up front so the hot path never
			// grows them: the queue is bounded by its cap plus one drain
			// burst before compaction kicks in.
			reqBuf: make([]prefetch.Request, 0, 64),
			pq:     make([]queuedPrefetch, 0, 2*prefetchQueueCap),
		}
		p.inflight.init()
		// The prefetch.Context the trainers see is boxed once here: building
		// the interface value per Train call made the L1-hit path allocate.
		p.ctx = portContext{p}
		if l1pf != nil {
			p.l1pf = l1pf()
		}
		if l2pf != nil {
			p.l2pf = l2pf()
		}
		s.ports = append(s.ports, p)
	}
	return s
}

// EnablePollutionTracking attaches a Fig. 20 pollution tracker. instrs must
// report the current retired-instruction count of the system.
func (s *System) EnablePollutionTracking(instrs func() uint64) *PollutionTracker {
	s.pollution = newPollutionTracker(instrs)
	return s.pollution
}

// Port returns core i's access port.
func (s *System) Port(i int) *Port { return s.ports[i] }

// DRAM returns the shared memory.
func (s *System) DRAM() *dram.DRAM { return s.dram }

// LLC returns the shared last-level cache.
func (s *System) LLC() *cache.Cache { return s.llc }

// BandwidthUtilization implements prefetch.Context against the live DRAM
// monitor; the current cycle is supplied by the port during training.
func (s *System) utilizationAt(now uint64) bitpattern.Quartile {
	return s.dram.Utilization(now)
}

// Port is one core's view of the memory system.
type Port struct {
	sys *System
	l1  *cache.Cache
	l2  *cache.Cache

	l1pf prefetch.Prefetcher
	l2pf prefetch.Prefetcher
	ctx  prefetch.Context // boxed once; handed to every Train call

	inflight inflightTable
	l1mshr   mshrRing // round-robin demand claim = "oldest frees first"
	l2mshr   mshrRing

	reqBuf []prefetch.Request
	// pq is the core's prefetch queue: candidates wait here and drain a few
	// per access event as MSHRs and controller slots free up, so a large
	// trigger burst (DSPatch/SMS predict up to a page at once) spreads over
	// time instead of being dropped wholesale.
	pq     []queuedPrefetch
	pqHead int
	now    uint64 // cycle of the in-progress access, for the BW context

	// gen counts mutations of this port's state a blocked drain depends on
	// (L1/L2 residency, L2 MSHR times, in-flight records). Together with
	// sys.gen and the blocked cycle it lets drainPrefetchQueue skip
	// re-evaluating a head entry that provably still cannot issue.
	gen              uint64
	drainBlocked     bool
	drainBlockedNow  uint64
	drainBlockedHead int // pqHead at block time: displacement invalidates the skip
	drainGenPort     uint64
	drainGenSys      uint64

	stats         CoverageStats
	prefUseful    uint64
	prefUsefulLLC uint64

	// lastWasPrefetchHit carries the prefetched-hit flag from fetchDemand to
	// the L2 trainer invocation in Access (BOP trains on prefetched hits).
	lastWasPrefetchHit bool
}

// queuedPrefetch is one pending entry of the port's prefetch queue.
type queuedPrefetch struct {
	req  prefetch.Request
	toL1 bool
}

// prefetchQueueCap bounds the port's pending prefetch candidates; beyond it,
// new candidates are dropped (oldest-first service).
const prefetchQueueCap = 128

// prefetchDrainPerEvent bounds how many queued prefetches one access event
// may issue to the memory system.
const prefetchDrainPerEvent = 8

// portContext adapts the port to prefetch.Context at its current cycle.
type portContext struct{ p *Port }

func (c portContext) BandwidthUtilization() bitpattern.Quartile {
	return c.p.sys.utilizationAt(c.p.now)
}

// Stats returns the port's coverage accounting.
func (p *Port) Stats() CoverageStats { return p.stats }

// L1 returns the port's L1 cache (for inspection).
func (p *Port) L1() *cache.Cache { return p.l1 }

// L2 returns the port's L2 cache (for inspection).
func (p *Port) L2() *cache.Cache { return p.l2 }

// L2Prefetcher returns the attached L2 prefetcher, if any.
func (p *Port) L2Prefetcher() prefetch.Prefetcher { return p.l2pf }

// L1Prefetcher returns the attached L1 prefetcher, if any.
func (p *Port) L1Prefetcher() prefetch.Prefetcher { return p.l1pf }

// UnusedPrefetches estimates L2-prefetcher DRAM fetches never used: issued
// minus observed first uses (floored at zero). The baseline L1 stride
// prefetcher's traffic is accounted separately and does not pollute the
// L2 prefetcher's Fig. 16 misprediction rate.
func (p *Port) UnusedPrefetches() uint64 {
	used := p.prefUseful + p.prefUsefulLLC
	if used >= p.stats.PrefetchDRAM {
		return 0
	}
	return p.stats.PrefetchDRAM - used
}

// UsefulPrefetches returns observed first demand uses of prefetched lines.
func (p *Port) UsefulPrefetches() uint64 { return p.prefUseful + p.prefUsefulLLC }

// mergeWait returns the completion time of a demand that merges with an
// in-flight fetch: the data's arrival, but never later than a promoted
// demand-priority fetch issued now would take (the controller raises the
// in-flight request's priority when a demand hits it).
func (p *Port) mergeWait(start, ready uint64) uint64 {
	promoted := start + p.sys.cfg.LLCHitLat + p.sys.dram.NominalLatency()
	if ready > promoted {
		return promoted
	}
	return ready
}

// inflightInsert records an outstanding fetch ready at cycle ready,
// overwriting any previous record for the line in place, and counts the
// mutation for the drain skip.
func (p *Port) inflightInsert(line memaddr.Line, ready uint64) {
	p.gen++
	p.inflight.insert(line, ready)
}

// Access performs one demand load or store issued at cycle now and returns
// its completion cycle.
func (p *Port) Access(now uint64, pc memaddr.PC, line memaddr.Line, write bool) uint64 {
	p.now = now
	p.stats.L1Accesses++
	if p.pqHead < len(p.pq) {
		p.drainPrefetchQueue(now)
	}

	r1 := p.l1.Access(line, write)

	// The L1 prefetcher trains on every L1 demand access.
	if p.l1pf != nil {
		p.reqBuf = p.l1pf.Train(prefetch.Access{PC: pc, Line: line, Write: write, Hit: r1.Hit}, p.ctx, p.reqBuf[:0])
		p.issuePrefetches(now, p.reqBuf, true)
	}
	if r1.Hit {
		done := now + p.sys.cfg.L1HitLat
		// A hit on a line whose fetch is still in flight waits for the data
		// (the tag is installed at issue; see issuePrefetches).
		if ready, ok := p.inflight.lookup(line); ok && ready > done {
			done = p.mergeWait(now, ready)
		}
		return done
	}

	// L1 miss: the L2 access path. This event also trains the L2 prefetcher.
	p.stats.L1Misses++
	done := p.fetchDemand(now, line, write)

	if p.l2pf != nil {
		// Hit state for the trainer: was it an L2 hit, and a prefetched one?
		r2hit := done <= now+p.sys.cfg.L2HitLat+1
		p.reqBuf = p.l2pf.Train(prefetch.Access{
			PC: pc, Line: line, Write: write,
			Hit:           r2hit,
			HitPrefetched: p.lastWasPrefetchHit,
		}, p.ctx, p.reqBuf[:0])
		p.issuePrefetches(now, p.reqBuf, false)
	}

	// Fill L1 with the returning line.
	p.gen++
	v1 := p.l1.Fill(line, cache.FillOpts{Dirty: write})
	if v1.Valid && v1.Dirty {
		p.l2.Fill(v1.Line, cache.FillOpts{Dirty: true})
	}
	return done
}

// fetchDemand resolves an L1 miss through L2, LLC and DRAM, updating
// coverage stats. It returns the completion cycle.
func (p *Port) fetchDemand(now uint64, line memaddr.Line, write bool) uint64 {
	cfg := &p.sys.cfg
	p.lastWasPrefetchHit = false

	start := p.l1mshr.claim(now, 0) // completion patched below

	r2 := p.l2.Access(line, write)
	if r2.Hit {
		done := start + cfg.L2HitLat
		// If the line is still in flight (tag filled at issue), the demand
		// waits for the data. The entry stays until it expires so further
		// demands in the window also wait.
		if ready, ok := p.inflight.lookup(line); ok && ready > done {
			done = p.mergeWait(start, ready)
		}
		if r2.FirstUseOfPrefetch {
			p.stats.Covered++
			p.prefUseful++
			p.lastWasPrefetchHit = true
		}
		p.l1mshr.patchLast(done)
		return done
	}

	rL := p.sys.llc.Access(line, write)
	if rL.Hit {
		done := start + cfg.LLCHitLat
		if ready, ok := p.inflight.lookup(line); ok && ready > done {
			done = p.mergeWait(start, ready)
		}
		if rL.FirstUseOfPrefetch {
			p.stats.Covered++
			p.prefUsefulLLC++
			p.lastWasPrefetchHit = true
		}
		if p.sys.pollution != nil {
			p.sys.pollution.onDemand(line, true)
		}
		// Absent: the L2 lookup above missed and nothing has filled the L2
		// since (the LLC access touches only LLC state).
		p.fillL2(line, cache.FillOpts{Dirty: write, Absent: true})
		p.l1mshr.patchLast(done)
		return done
	}

	// Demand goes to memory.
	if p.sys.pollution != nil {
		p.sys.pollution.onDemand(line, false)
	}
	p.gen++     // L2 MSHR times change (claim + patch below)
	p.sys.gen++ // DRAM bank/bus state changes
	start2 := p.l2mshr.claim(start, 0)
	dramDone := p.sys.dram.Access(start2+cfg.LLCHitLat, line, false)
	p.stats.Uncovered++
	p.stats.DemandDRAM++
	// Absent: both lookups above missed, and neither the DRAM access nor the
	// LLC fill's victim write-back can install this line meanwhile.
	p.fillLLC(line, cache.FillOpts{Dirty: write, Absent: true}, 0)
	p.fillL2(line, cache.FillOpts{Dirty: write, Absent: true})
	p.inflightInsert(line, dramDone)
	p.inflight.prune(now)
	p.l2mshr.patchLast(dramDone)
	p.l1mshr.patchLast(dramDone)
	return dramDone
}

// issuePrefetches enqueues a batch of prefetch candidates and drains the
// queue as far as resources allow. toL1 marks L1 prefetcher output, which
// additionally fills the L1.
func (p *Port) issuePrefetches(now uint64, reqs []prefetch.Request, toL1 bool) {
	if len(reqs) == 0 && p.pqHead == len(p.pq) {
		// Nothing to enqueue and nothing queued: the drain below would be a
		// pure no-op (an empty queue always exits the drain loop unblocked,
		// so drainBlocked is already false).
		return
	}
	n := len(reqs)
	if n > p.sys.cfg.MaxPrefetchesPerTrain {
		n = p.sys.cfg.MaxPrefetchesPerTrain
	}
	for _, r := range reqs[:n] {
		if len(p.pq)-p.pqHead >= prefetchQueueCap {
			// Full: displace the oldest entry — fresh predictions are more
			// valuable than stale ones still waiting for resources.
			p.pqHead++
			p.stats.PrefetchDrop++
		}
		p.pq = append(p.pq, queuedPrefetch{req: r, toL1: toL1})
	}
	p.drainPrefetchQueue(now)
}

// drainPrefetchQueue issues pending prefetches until it runs out of
// candidates, MSHRs, controller queue space, or its per-event budget.
func (p *Port) drainPrefetchQueue(now uint64) {
	// A drain that ended blocked on resources performed no mutation for its
	// head entry; re-running it is pure re-reading. If the head entry, the
	// cycle and every generation counter it read under are unchanged, the
	// re-run provably blocks at the same point (the memory-controller limit
	// only tightens for a fresh attempt at the same cycle), so skip it
	// outright. Saturated phases hit this on nearly every event. A full
	// queue displacing the blocked head (issuePrefetches bumps pqHead)
	// invalidates the skip: the new head may well issue. The golden corpus
	// (internal/sim/testdata/golden_results.json) was proven against a
	// drain that never skipped, so it holds the skip to a pure no-op. No
	// corpus case needs the port's generation, but a same-cycle demand can
	// move only that one: its L1 fill writes a dirty victim, the blocked
	// head, back into the L2 (TestDrainSkipSeesSameCycleL2Fill).
	if p.drainBlocked && now == p.drainBlockedNow && p.pqHead == p.drainBlockedHead &&
		p.gen == p.drainGenPort && p.sys.gen == p.drainGenSys {
		return
	}
	blocked := false
	cfg := &p.sys.cfg
	l1, l2, llc, dr := p.l1, p.l2, p.sys.llc, p.sys.dram
	issued := 0
	issueAt := now
	for p.pqHead < len(p.pq) && issued < prefetchDrainPerEvent {
		q := p.pq[p.pqHead]
		line := q.req.Line
		if q.toL1 && l1.Probe(line) {
			p.pqHead++
			continue
		}
		if l2.Probe(line) {
			if q.toL1 {
				// Absent: the L1 probe above missed; nothing fills the L1
				// between it and here.
				p.gen++
				p.l1.Fill(line, cache.FillOpts{Prefetch: true, Absent: true})
			}
			p.pqHead++
			continue
		}
		// Skip only while the line's fetch is still outstanding. A stale
		// completed record deliberately falls through: if this re-prefetch
		// reaches DRAM below, inflightInsert overwrites the record in place
		// (same key, same slot) rather than skipping the issue or leaking a
		// second entry for the line. The record itself must not be deleted
		// here — per-port access cycles are not monotone, so an entry
		// completed relative to this event can still be observably in flight
		// for a later access at an earlier cycle; cleanup belongs to the
		// deterministic prune on the demand path.
		if ready, ok := p.inflight.lookup(line); ok && ready > now {
			p.pqHead++
			continue
		}
		if llc.Probe(line) {
			// Promote from LLC into L2: no DRAM traffic. Absent: the L2 (and,
			// for toL1 entries, L1) probes above missed with no fill since.
			p.stats.PrefetchLLC++
			p.fillL2(line, cache.FillOpts{Prefetch: !q.toL1, LowPriority: q.req.LowPriority, Absent: true})
			if q.toL1 {
				p.gen++
				p.l1.Fill(line, cache.FillOpts{Prefetch: true, Absent: true})
			}
			p.pqHead++
			issued++
			continue
		}
		// A prefetch needs an L2 MSHR for its whole flight and must leave
		// headroom for demand misses; it stays queued while none is free.
		slot := p.l2mshr.freeReserve(now, demandMSHRReserve)
		if slot < 0 {
			blocked = true
			break
		}
		done, ok := dr.TryPrefetch(issueAt+cfg.LLCHitLat, line)
		if !ok {
			// Memory-controller prefetch queue full: wait for it to drain.
			blocked = true
			break
		}
		issueAt += prefetchIssueInterval
		p.gen++
		p.l2mshr.set(slot, done)
		if q.toL1 {
			p.stats.PrefetchDRAML1++
		} else {
			p.stats.PrefetchDRAM++
		}
		// L1-prefetcher fills carry the prefetch bit only in the L1, so the
		// L2 coverage metrics track the L2 prefetcher alone. Absent: every
		// level was probed missing above and nothing re-installed the line.
		p.fillLLC(line, cache.FillOpts{Prefetch: !q.toL1, LowPriority: q.req.LowPriority, Absent: true}, line)
		p.fillL2(line, cache.FillOpts{Prefetch: !q.toL1, LowPriority: q.req.LowPriority, Absent: true})
		if q.toL1 {
			p.gen++
			p.l1.Fill(line, cache.FillOpts{Prefetch: true, Absent: true})
		}
		p.inflightInsert(line, done)
		p.pqHead++
		issued++
	}
	// Compact the consumed prefix so the queue does not grow unboundedly.
	if p.pqHead > 64 {
		p.pq = append(p.pq[:0], p.pq[p.pqHead:]...)
		p.pqHead = 0
	}
	// Snapshot the blocked state after compaction so the recorded head
	// position matches what the next call will see.
	p.drainBlocked = blocked
	if blocked {
		p.drainBlockedNow = now
		p.drainBlockedHead = p.pqHead
		p.drainGenPort = p.gen
		p.drainGenSys = p.sys.gen
	}
}

// demandMSHRReserve is how many L2 MSHRs prefetches must leave free for
// demand misses.
const demandMSHRReserve = 4

// prefetchIssueInterval is the L2 prefetch queue's drain spacing in cycles:
// consecutive requests of one training burst reach the memory controller
// this far apart.
const prefetchIssueInterval = 4

// fillL2 installs a line in the private L2, cascading dirty victims to the
// LLC.
func (p *Port) fillL2(line memaddr.Line, opts cache.FillOpts) {
	p.gen++
	v := p.l2.Fill(line, opts)
	if v.Valid && v.Dirty {
		p.fillLLC(v.Line, cache.FillOpts{Dirty: true}, 0)
	}
}

// fillLLC installs a line in the shared LLC, writing dirty victims back to
// memory. evicter is the prefetched line causing the fill (zero for demand
// fills) — the pollution tracker uses it.
func (p *Port) fillLLC(line memaddr.Line, opts cache.FillOpts, evicter memaddr.Line) {
	p.sys.gen++ // LLC residency and (below) DRAM bus state change
	v := p.sys.llc.Fill(line, opts)
	if p.sys.pollution != nil {
		if opts.Prefetch {
			p.sys.pollution.onPrefetchFill(line)
		}
		if v.Valid && opts.Prefetch {
			p.sys.pollution.onPrefetchEvict(v.Line, evicter)
		}
	}
	if v.Valid && v.Dirty {
		p.sys.dram.AccessPriority(p.now+p.sys.cfg.LLCHitLat, v.Line, true, false)
		p.stats.Writebacks++
	}
}
