// Package sim drives end-to-end simulations: it wires workload generators
// (internal/trace) through the core model (internal/cpu) into the memory
// system (internal/memsys) and collects the metrics the paper reports —
// IPC-based performance deltas, prefetch coverage and misprediction rates,
// bandwidth utilization, and the appendix pollution taxonomy.
package sim

import (
	"context"

	"dspatch/internal/cpu"
	"dspatch/internal/dram"
	"dspatch/internal/memaddr"
	"dspatch/internal/memsys"
	"dspatch/internal/prefetch"
	"dspatch/internal/prefstats"
	"dspatch/internal/trace"
)

// Options configures one simulation run.
type Options struct {
	DRAM     dram.Config
	LLCBytes int
	Refs     int   // memory references simulated per core
	Seed     int64 // workload generator seed
	L2       PF    // L2 prefetcher selection (PFNone for baseline)
	// NoL1Stride removes the baseline L1 stride prefetcher (used only by
	// diagnostic experiments; the paper's baseline always has it).
	NoL1Stride bool
	// SMSPHTEntries overrides the SMS pattern table size (Fig. 5 sweep).
	SMSPHTEntries int
	// TrackPollution enables the Fig. 20 victim taxonomy.
	TrackPollution bool
	// CollectStats snapshots per-prefetcher internal telemetry (PB hit
	// rates, CovP/AccP selection reasons, bandwidth-quartile histograms)
	// into Result.Prefetchers when the run finishes. The models' counters
	// are always on — plain integer increments, allocation-free — so the
	// flag only controls whether the end-of-run snapshot is taken; it can
	// never change a simulation's outcome.
	CollectStats bool
}

// ResultVersion stamps persisted results of Run. Bump it on ANY change that
// can alter a simulation's outcome — workload generators, prefetcher
// algorithms, timing models, Result fields — so persistent caches keyed on
// simulation inputs (experiments' -cache-dir) discard entries computed by
// older behaviour instead of serving them as current. The golden corpus
// (testdata/golden_results.json) records the version it was generated at and
// pins every Result: a deliberate behaviour change bumps ResultVersion and
// regenerates the corpus in the same change, so the corpus diff shows what
// moved; an optimization must leave both untouched.
//
// Version 2: multi-programmed lane seeds are derived by LaneSeed's bit mixer
// instead of the old linear Seed + lane*104729 stride, so lanes > 0 of every
// multi-lane run stream differently than version 1 did.
//
// Version 3: the Result surface changed — the live Ports field was replaced
// by the plain-data PortStats snapshot, and Prefetchers carries optional
// per-prefetcher telemetry — so entries persisted by older builds no longer
// match the current shape.
//
// Version 4: mix-workload sub-generator seeds are derived by a splitmix64
// finalizer instead of the old linear seed + part*7919 stride, so every
// mix-built workload streams differently past part 0 and cached results for
// them are stale.
const ResultVersion = 4

// LaneSeed derives the generator seed of lane i of a run whose Options.Seed
// is base. Lane 0 always streams from base itself, so single-thread results
// are a pure function of Options.Seed. Higher lanes mix the lane index into
// the seed with a splitmix64-style finalizer rather than a linear stride:
// the old derivation base + i*104729 made (base, lane 1) and
// (base+104729, lane 0) share one (workload, seed) stream, silently aliasing
// lanes across the base-seed grids campaign sweeps run. Exported so tools
// reasoning about which (workload, seed) streams a run touches (the CLI's
// imported-trace guards) use the same derivation.
func LaneSeed(base int64, lane int) int64 {
	if lane == 0 {
		return base
	}
	h := uint64(base) ^ uint64(lane)*0x9E3779B97F4A7C15
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return int64(h)
}

// DefaultST returns the paper's single-thread configuration: one core, 2MB
// LLC, one DDR4-2133 channel.
func DefaultST() Options {
	return Options{DRAM: dram.DDR4(1, 2133), LLCBytes: 2 << 20, Refs: 200_000, Seed: 1}
}

// DefaultMP returns the paper's multi-programmed configuration: four cores,
// shared 8MB LLC, two DDR4-2133 channels.
func DefaultMP() Options {
	return Options{DRAM: dram.DDR4(2, 2133), LLCBytes: 8 << 20, Refs: 150_000, Seed: 1}
}

// PrefetcherStats is one prefetcher model's telemetry snapshot; see
// Options.CollectStats and package prefstats for the schema.
type PrefetcherStats = prefstats.Stats

// PortStats is a read-only snapshot of one port's memory-system counters,
// taken when the run finishes. Unlike the live *memsys.Port it replaced, it
// is plain data: safe to marshal, memoize and share across API layers.
type PortStats struct {
	Coverage         memsys.CoverageStats
	UsefulPrefetches uint64
	UnusedPrefetches uint64
}

// Result is the outcome of one run.
type Result struct {
	IPC    []float64 // per core
	Cycles uint64    // longest core

	Coverage    float64 // covered / (covered + uncovered), all cores
	MispredRate float64 // unused prefetches / same denominator
	Accuracy    float64 // useful / issued

	AvgBandwidthGBps float64
	PeakBandwidth    float64

	// Pollution fractions (NoReuse, PrefetchedBeforeUse, BadPollution);
	// zero unless TrackPollution was set.
	Pollution [3]float64

	// PortStats snapshots each core's memory-system counters.
	PortStats []PortStats

	// Prefetchers carries per-prefetcher internal telemetry, merged across
	// lanes by model name; nil unless Options.CollectStats was set. Omitted
	// from JSON when absent, so stats-free results keep their lean shape.
	Prefetchers []PrefetcherStats `json:",omitempty"`
}

// memAdapter binds a port and the current reference so the cpu callback does
// not allocate per access.
type memAdapter struct {
	port  *memsys.Port
	pc    memaddr.PC
	line  memaddr.Line
	write bool
}

func (m *memAdapter) access(issue uint64) uint64 {
	return m.port.Access(issue, m.pc, m.line, m.write)
}

// cancelCheckMask sets how often the run loop polls for cancellation: every
// (mask+1) references. Coarse enough to stay invisible next to the per-ref
// simulation work, fine enough that a canceled run stops within microseconds.
const cancelCheckMask = 8191

// Run simulates one workload per core (1 workload = single-thread, 4 =
// multi-programmed). Each core receives a disjoint physical address space.
func Run(ws []trace.Workload, opt Options) Result {
	res, _ := RunCtx(context.Background(), ws, opt)
	return res
}

// RunCtx is Run with a cancellation hook: the run loop polls ctx every
// cancelCheckMask+1 references and aborts with ctx.Err() when it fires,
// returning a zero Result whose IPC slice still has one entry per workload so
// aggregation code indexing per-core fields never sees a short slice.
// Cancellation never alters the outcome of a run that completes: results are
// bit-identical to Run's.
func RunCtx(ctx context.Context, ws []trace.Workload, opt Options) (Result, error) {
	n := len(ws)
	if n == 0 {
		panic("sim: no workloads")
	}
	m, err := runMachine(ctx, ws, opt)
	if err != nil {
		return Result{IPC: make([]float64, n)}, err
	}
	return m.finish(), nil
}

// runMachine builds the machine RunCtx simulates and runs it to completion,
// leaving the Result to the caller's finish so in-package tests can inspect
// the live memory system afterwards.
func runMachine(ctx context.Context, ws []trace.Workload, opt Options) (*machine, error) {
	n := len(ws)
	if err := ctx.Err(); err != nil {
		// Already canceled: skip lane setup (trace materialization alone can
		// cost seconds at full scale).
		return nil, err
	}
	m := newMachine(ws, opt, true)

	// Interleave cores by advancing whichever is earliest in simulated time,
	// so they contend for the shared LLC and DRAM realistically. A single
	// lane needs no selection scan — the paper's single-thread machine runs
	// the tight loop. It stays apart from RunBatchCtx: on a 2-core VM, a
	// one-config batch's ~2.6 MB ref chunk raised st-roster peak RSS 66→92 MB.
	done := ctx.Done() // nil for context.Background(): no per-ref polling cost
	var refsDone int
	var ref trace.Ref
	single := m.lanes[0]
	for {
		if done != nil && refsDone&cancelCheckMask == cancelCheckMask {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		refsDone++
		var l *simLane
		if n == 1 {
			if single.left == 0 {
				break
			}
			l = single
		} else {
			l = m.earliest()
			if l == nil {
				break
			}
		}
		l.gen.Next(&ref)
		m.apply(l, &ref)
	}
	return m, nil
}

// simLane is one core's stream state within a machine: the core model, its
// replay position, and the pre-bound memory callback.
type simLane struct {
	core *cpu.Core
	gen  trace.Generator
	ad   *memAdapter
	mem  cpu.LoadFunc
	left int
	base memaddr.Line
}

// machine is one fully-wired simulator instance — DRAM, memory system, and
// one lane per workload — separated from the run loop so a batch can advance
// several machines in lockstep over one trace stream (see RunBatchCtx) while
// the serial path keeps its tight loop.
type machine struct {
	opt     Options
	sys     *memsys.System
	lanes   []*simLane
	tracker *memsys.PollutionTracker
	instr   uint64
	halted  bool // batch-loop bookkeeping: every lane exhausted
}

// newMachine wires one simulator for ws under opt. When ownCursors is false
// the lanes are built without replay cursors: the caller feeds refs directly
// through apply, sharing one cursor across machines.
func newMachine(ws []trace.Workload, opt Options, ownCursors bool) *machine {
	n := len(ws)
	d := dram.New(opt.DRAM)
	cfg := memsys.DefaultConfig(opt.LLCBytes)

	var l1f func() prefetch.Prefetcher
	if !opt.NoL1Stride {
		l1f = func() prefetch.Prefetcher { return prefetch.NewStride(prefetch.DefaultStrideConfig()) }
	}
	l2f := factory(opt)
	sys := memsys.NewSystem(cfg, d, n, l1f, l2f)

	m := &machine{opt: opt, sys: sys}
	if opt.TrackPollution {
		m.tracker = sys.EnablePollutionTracking(func() uint64 { return m.instr })
	}
	m.lanes = make([]*simLane, n)
	for i := 0; i < n; i++ {
		ad := &memAdapter{port: sys.Port(i)}
		var gen trace.Generator
		if ownCursors {
			// Every run of the same (workload, seed) replays one process-wide
			// materialized stream: the generator executes once, and every
			// prefetcher configuration and worker goroutine reads the same
			// immutable columns.
			gen = trace.Replay(ws[i], LaneSeed(opt.Seed, i), opt.Refs)
		}
		m.lanes[i] = &simLane{
			core: cpu.New(cpu.DefaultConfig()),
			gen:  gen,
			ad:   ad,
			mem:  ad.access,
			left: opt.Refs,
			base: memaddr.Line(uint64(i) << 36), // disjoint address spaces
		}
	}
	return m
}

// earliest returns the unfinished lane furthest behind in simulated time, or
// nil when every lane has consumed its refs.
func (m *machine) earliest() *simLane {
	var l *simLane
	for _, cand := range m.lanes {
		if cand.left == 0 {
			continue
		}
		if l == nil || cand.core.Cycle() < l.core.Cycle() {
			l = cand
		}
	}
	return l
}

// step advances the machine by one reference pulled from its own cursors,
// returning false once every lane is exhausted.
func (m *machine) step(ref *trace.Ref) bool {
	var l *simLane
	if len(m.lanes) == 1 {
		l = m.lanes[0]
		if l.left == 0 {
			return false
		}
	} else {
		l = m.earliest()
		if l == nil {
			return false
		}
	}
	l.gen.Next(ref)
	m.apply(l, ref)
	return true
}

// apply feeds one reference to lane l: the exact per-ref sequence of the
// original run loop, shared verbatim by the serial and batch paths so their
// results stay bit-identical.
func (m *machine) apply(l *simLane, ref *trace.Ref) {
	l.core.Ops(ref.Gap)
	l.ad.pc = ref.PC
	l.ad.line = ref.Line + l.base
	l.ad.write = ref.Write
	switch {
	case ref.Write:
		l.core.Store(l.mem)
	case ref.Dep:
		l.core.LoadAfter(l.mem)
	default:
		l.core.Load(l.mem)
	}
	m.instr += uint64(ref.Gap) + 1
	l.left--
}

// finish drains every lane and assembles the Result.
func (m *machine) finish() Result {
	res := Result{PeakBandwidth: m.opt.DRAM.PeakBandwidthGBps()}
	var covered, uncovered, useful, unused uint64
	for _, l := range m.lanes {
		ipc := l.core.IPC()
		res.IPC = append(res.IPC, ipc)
		if c := l.core.Drain(); c > res.Cycles {
			res.Cycles = c
		}
		p := l.ad.port
		st := p.Stats()
		covered += st.Covered
		uncovered += st.Uncovered
		useful += p.UsefulPrefetches()
		unused += p.UnusedPrefetches()
		res.PortStats = append(res.PortStats, PortStats{
			Coverage:         st,
			UsefulPrefetches: p.UsefulPrefetches(),
			UnusedPrefetches: p.UnusedPrefetches(),
		})
	}
	if m.opt.CollectStats {
		for _, l := range m.lanes {
			p := l.ad.port
			res.Prefetchers = prefstats.Merge(res.Prefetchers, prefetch.ReportStats(p.L1Prefetcher()))
			res.Prefetchers = prefstats.Merge(res.Prefetchers, prefetch.ReportStats(p.L2Prefetcher()))
		}
	}
	if den := covered + uncovered; den > 0 {
		res.Coverage = float64(covered) / float64(den)
		res.MispredRate = float64(unused) / float64(den)
	}
	if issued := useful + unused; issued > 0 {
		res.Accuracy = float64(useful) / float64(issued)
	}
	res.AvgBandwidthGBps = m.sys.DRAM().AvgBandwidthGBps(res.Cycles)
	if m.tracker != nil {
		m.tracker.Finish()
		res.Pollution[0], res.Pollution[1], res.Pollution[2] = m.tracker.Fractions()
	}
	return res
}

// RunSingle simulates one workload on the single-thread configuration.
func RunSingle(w trace.Workload, opt Options) Result {
	return Run([]trace.Workload{w}, opt)
}

// Speedup returns with.IPC[i]/base.IPC[i] ratios.
func Speedup(base, with Result) []float64 {
	out := make([]float64, len(base.IPC))
	for i := range out {
		if base.IPC[i] > 0 {
			out[i] = with.IPC[i] / base.IPC[i]
		}
	}
	return out
}
