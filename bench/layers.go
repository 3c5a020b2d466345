package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"dspatch/internal/cache"
	"dspatch/internal/core"
	"dspatch/internal/cpu"
	"dspatch/internal/dram"
	"dspatch/internal/experiments"
	"dspatch/internal/memaddr"
	"dspatch/internal/memsys"
	"dspatch/internal/prefetch"
	"dspatch/internal/sim"
	"dspatch/internal/spp"
	"dspatch/internal/sweep"
	"dspatch/internal/trace"
)

// spanName names a layer boundary the traced run records.
type spanName uint8

const (
	spTraceNext spanName = iota
	spCPU
	spMemsys
	spL1Train
	spSPPTrain
	spCoreTrain
	spSweepRun
	spStorePut
	spCampaign
	spSubmit
	spQueueWait
	spJobRun
	numSpanNames
)

var spanLabels = [numSpanNames]string{
	"trace.next", "cpu", "memsys.access", "prefetch.l1.train", "spp.train", "core.train",
	"sweep.engine_run", "sweep.store_put",
	"service.campaign", "service.submit", "service.queue_wait", "service.job_run",
}

// span is one recorded interval. Spans of one simulated reference share its
// id (job index << 32 | ref index); spans of one campaign share the
// campaign's pool index.
type span struct {
	id         uint64
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span, -1 for a root
	name       spanName
}

// tracer keeps the traced run's spans in memory; they are written out when
// the run ends. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	on    bool   // the current reference is sampled
	id    uint64 // id of the current sampled reference

	// Calibration: d0 is the measured length of an empty span (the clock
	// reads' own cost inside the interval), pair the cost one child's
	// begin/end adds to its parent.
	d0, pair float64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.calibrate()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name spanName, id uint64) {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.open = append(t.open, int32(i))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name})
	// Stamped after the append, so a slice reallocation is not timed.
	t.spans[i].start = t.now()
}

func (t *tracer) end() {
	n := len(t.open) - 1
	t.spans[t.open[n]].end = t.now()
	t.open = t.open[:n]
}

// add records a finished span from wall-clock times taken elsewhere.
func (t *tracer) add(name spanName, id uint64, parent int32, start, end time.Time) int32 {
	t.spans = append(t.spans, span{id: id, parent: parent, name: name,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))})
	return int32(len(t.spans) - 1)
}

func (t *tracer) calibrate() {
	const n = 100_000
	t.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t.begin(spTraceNext, 0)
		t.end()
	}
	t.pair = float64(time.Since(start)) / n
	lens := make([]float64, n)
	for i, s := range t.spans {
		lens[i] = float64(s.end - s.start)
	}
	t.d0 = median(lens)
	t.spans = t.spans[:0]
}

// layerTimes returns, per span name, the mean corrected duration and the
// mean self time (duration minus the children's). A span's corrected
// duration subtracts the calibrated cost of its own clock reads and of every
// descendant's begin/end.
func (t *tracer) layerTimes() (total, self [numSpanNames]float64) {
	n := len(t.spans)
	desc := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		if p := t.spans[i].parent; p >= 0 {
			desc[p] += 1 + desc[i]
		}
	}
	corr := make([]float64, n)
	children := make([]float64, n)
	for i, s := range t.spans {
		corr[i] = float64(s.end-s.start) - t.d0 - float64(desc[i])*t.pair
	}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += corr[i]
		}
	}
	var count [numSpanNames]int
	for i, s := range t.spans {
		total[s.name] += corr[i]
		self[s.name] += corr[i] - children[i]
		count[s.name]++
	}
	for k := range count {
		if count[k] > 0 {
			total[k] /= float64(count[k])
			self[k] /= float64(count[k])
		}
	}
	return total, self
}

// write stores the spans as gzipped tab-separated lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(f)
	w := bufio.NewWriter(gz)
	w.WriteString("# span\tname\tid\tparent\tstart_ns\tend_ns\n")
	var line []byte
	for i, s := range t.spans {
		line = strconv.AppendInt(line[:0], int64(i), 10)
		line = append(append(line, '\t'), spanLabels[s.name]...)
		line = strconv.AppendUint(append(line, '\t'), s.id, 10)
		line = strconv.AppendInt(append(line, '\t'), int64(s.parent), 10)
		line = strconv.AppendInt(append(line, '\t'), s.start, 10)
		line = strconv.AppendInt(append(line, '\t'), s.end, 10)
		w.Write(append(line, '\n'))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := gz.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPF wraps one prefetcher model: every Train call is counted, and the
// calls of sampled references are timed.
type tracedPF struct {
	inner       prefetch.Prefetcher
	t           *tracer
	name        spanName
	calls, reqs uint64
}

func (p *tracedPF) Name() string     { return p.inner.Name() }
func (p *tracedPF) StorageBits() int { return p.inner.StorageBits() }

func (p *tracedPF) Train(a prefetch.Access, ctx prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	n := len(dst)
	if p.t.on {
		p.t.begin(p.name, p.t.id)
		dst = p.inner.Train(a, ctx, dst)
		p.t.end()
	} else {
		dst = p.inner.Train(a, ctx, dst)
	}
	p.calls++
	p.reqs += uint64(len(dst) - n)
	return dst
}

// tracedLane is one core of a traced machine with its replay cursor. Its
// access method is the core's memory callback, timed on sampled references.
type tracedLane struct {
	core  *cpu.Core
	gen   trace.Generator
	port  *memsys.Port
	t     *tracer
	mem   cpu.LoadFunc
	left  int
	base  memaddr.Line
	pc    memaddr.PC
	line  memaddr.Line
	write bool
}

func (l *tracedLane) access(issue uint64) uint64 {
	if l.t.on {
		l.t.begin(spMemsys, l.t.id)
		done := l.port.Access(issue, l.pc, l.line, l.write)
		l.t.end()
		return done
	}
	return l.port.Access(issue, l.pc, l.line, l.write)
}

// apply feeds one reference to the lane, as sim's run loop does.
func (l *tracedLane) apply(ref *trace.Ref) {
	l.core.Ops(ref.Gap)
	l.pc, l.line, l.write = ref.PC, ref.Line+l.base, ref.Write
	switch {
	case ref.Write:
		l.core.Store(l.mem)
	case ref.Dep:
		l.core.LoadAfter(l.mem)
	default:
		l.core.Load(l.mem)
	}
	l.left--
}

// tracedMachine is sim's machine rebuilt from the public constructors, with
// the L1 stride prefetcher and each L2 model behind a tracedPF.
type tracedMachine struct {
	opt   sim.Options
	t     *tracer
	dram  *dram.DRAM
	sys   *memsys.System
	lanes []*tracedLane
	pfs   []*tracedPF
	cores []*core.DSPatch
}

func newTracedMachine(j experiments.Job, t *tracer) (*tracedMachine, error) {
	opt := j.Opt
	m := &tracedMachine{opt: opt, t: t, dram: dram.New(opt.DRAM)}
	wrap := func(p prefetch.Prefetcher, name spanName) prefetch.Prefetcher {
		w := &tracedPF{inner: p, t: t, name: name}
		m.pfs = append(m.pfs, w)
		return w
	}
	l1 := func() prefetch.Prefetcher {
		return wrap(prefetch.NewStride(prefetch.DefaultStrideConfig()), spL1Train)
	}
	sppPart := func() prefetch.Prefetcher { return wrap(spp.New(spp.DefaultConfig()), spSPPTrain) }
	corePart := func() prefetch.Prefetcher {
		c := core.New(core.DefaultConfig())
		m.cores = append(m.cores, c)
		return wrap(c, spCoreTrain)
	}
	var l2 func() prefetch.Prefetcher
	switch opt.L2 {
	case sim.PFNone:
	case sim.PFSPP:
		l2 = sppPart
	case sim.PFDSPatch:
		l2 = corePart
	case sim.PFDSPatchSPP:
		// SPP first, as sim composes it.
		l2 = func() prefetch.Prefetcher {
			return prefetch.NewComposite("dspatch+spp", sppPart(), corePart())
		}
	default:
		return nil, fmt.Errorf("traced machine: unsupported prefetcher %q", opt.L2)
	}
	m.sys = memsys.NewSystem(memsys.DefaultConfig(opt.LLCBytes), m.dram, len(j.Workloads), l1, l2)
	for i, w := range j.Workloads {
		l := &tracedLane{
			core: cpu.New(cpu.DefaultConfig()),
			gen:  trace.Replay(w, sim.LaneSeed(opt.Seed, i), opt.Refs),
			port: m.sys.Port(i),
			t:    t,
			left: opt.Refs,
			base: memaddr.Line(uint64(i) << 36),
		}
		l.mem = l.access
		m.lanes = append(m.lanes, l)
	}
	return m, nil
}

// earliest returns the unfinished lane furthest behind in simulated time.
func (m *tracedMachine) earliest() *tracedLane {
	var l *tracedLane
	for _, c := range m.lanes {
		if c.left > 0 && (l == nil || c.core.Cycle() < l.core.Cycle()) {
			l = c
		}
	}
	return l
}

// run simulates the job, timing every spanSample-th reference with all its
// calls, and returns the result sim.Run would.
func (m *tracedMachine) run(job int) sim.Result {
	t := m.t
	var ref trace.Ref
	for r := 0; ; r++ {
		l := m.lanes[0]
		if len(m.lanes) > 1 {
			l = m.earliest()
		}
		if l == nil || l.left == 0 {
			break
		}
		if r%spanSample != 0 {
			l.gen.Next(&ref)
			l.apply(&ref)
			continue
		}
		t.on, t.id = true, uint64(job)<<32|uint64(r)
		t.begin(spTraceNext, t.id)
		l.gen.Next(&ref)
		t.end()
		t.begin(spCPU, t.id)
		l.apply(&ref)
		t.end()
		t.on = false
	}
	res := sim.Result{PeakBandwidth: m.opt.DRAM.PeakBandwidthGBps()}
	var covered, uncovered, useful, unused uint64
	for _, l := range m.lanes {
		res.IPC = append(res.IPC, l.core.IPC())
		res.Cycles = max(res.Cycles, l.core.Drain())
		st := l.port.Stats()
		covered += st.Covered
		uncovered += st.Uncovered
		useful += l.port.UsefulPrefetches()
		unused += l.port.UnusedPrefetches()
	}
	if den := covered + uncovered; den > 0 {
		res.Coverage = float64(covered) / float64(den)
		res.MispredRate = float64(unused) / float64(den)
	}
	if issued := useful + unused; issued > 0 {
		res.Accuracy = float64(useful) / float64(issued)
	}
	res.AvgBandwidthGBps = m.dram.AvgBandwidthGBps(res.Cycles)
	return res
}

// layerCounts pools the simulated counters of every traced job.
type layerCounts struct {
	refs                               uint64
	accesses                           uint64
	l1, l2, llc                        [2]uint64 // demand hits, demand accesses
	covered, uncovered, useful, unused uint64
	calls, reqs                        [numSpanNames]uint64
	pbHits, pbLookups                  uint64
	covp, accp, none                   uint64
	bwq                                [4]uint64
	dram                               dram.Stats
	busyCap                            float64 // cycles × channels
	bwBytes, bwSeconds                 float64
}

func (c *layerCounts) add(m *tracedMachine, res sim.Result) {
	c.refs += uint64(m.opt.Refs * len(m.lanes))
	hits := func(dst *[2]uint64, s cache.Stats) {
		dst[0] += s.DemandHits
		dst[1] += s.DemandAccesses
	}
	for _, l := range m.lanes {
		st := l.port.Stats()
		c.accesses += st.L1Accesses
		c.covered += st.Covered
		c.uncovered += st.Uncovered
		c.useful += l.port.UsefulPrefetches()
		c.unused += l.port.UnusedPrefetches()
		hits(&c.l1, l.port.L1().Stats())
		hits(&c.l2, l.port.L2().Stats())
	}
	hits(&c.llc, m.sys.LLC().Stats())
	for _, p := range m.pfs {
		c.calls[p.name] += p.calls
		c.reqs[p.name] += p.reqs
	}
	for _, d := range m.cores {
		s := d.Stats()
		c.pbHits += s.PBHits
		c.pbLookups += s.PBLookups
		c.covp += s.PredictionsCovP
		c.accp += s.PredictionsAccP
		c.none += s.PredictionsNone
		for i, n := range s.BWQuartiles {
			c.bwq[i] += n
		}
	}
	ds := m.dram.Stats()
	c.dram.Reads += ds.Reads
	c.dram.RowHits += ds.RowHits
	c.dram.RowMisses += ds.RowMisses
	c.dram.TotalCAS += ds.TotalCAS
	c.dram.BusyCycles += ds.BusyCycles
	c.dram.QueueCycles += ds.QueueCycles
	cfg := m.opt.DRAM
	c.busyCap += float64(res.Cycles) * float64(cfg.Channels)
	c.bwBytes += float64(ds.TotalCAS) * memaddr.LineBytes
	c.bwSeconds += float64(res.Cycles) / (float64(cfg.CoreClockMHz) * 1e6)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanSample is how often the traced machine times a reference: one in
// spanSample, with all of that reference's calls.
const spanSample = 16

// traceSim runs every job untraced through sim.Run and then on the traced
// machine, expects the two bit-identical, and fills the simulator-side
// per-layer metrics.
func traceSim(ctx context.Context, cfg config, o *outcome, t *tracer, jobs []experiments.Job) error {
	var c layerCounts
	var untraced, traced time.Duration
	cfgNs := map[sim.PF]time.Duration{}
	cfgRefs := map[sim.PF]int{}
	// Room for every span up front: a reallocation inside a span would be
	// timed as the work of its parent. A sampled ref opens at most six.
	refs := 0
	for _, j := range jobs {
		refs += j.Opt.Refs * len(j.Workloads)
	}
	t.spans = slices.Grow(t.spans, 6*(refs/spanSample+len(jobs)))
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return err
		}
		start := time.Now()
		want := sim.Run(j.Workloads, j.Opt)
		du := time.Since(start)

		start = time.Now()
		m, err := newTracedMachine(j, t)
		if err != nil {
			return err
		}
		got := m.run(i)
		traced += time.Since(start)

		untraced += du
		cfgNs[j.Opt.L2] += du
		cfgRefs[j.Opt.L2] += j.Opt.Refs * len(j.Workloads)
		o.expect(sameResult(got, want), "traced job %d (%s, %s) differs from sim.Run", i, j.Workloads[0].Name, j.Opt.L2)
		c.add(m, got)
	}
	total, self := t.layerTimes()
	mt := o.metrics
	mt["trace.next_ns"] = total[spTraceNext]
	mt["cpu.self_ns_per_ref"] = self[spCPU]
	mt["memsys.access_self_ns"] = self[spMemsys]
	mt["memsys.accesses"] = float64(c.accesses)
	mt["memsys.l1_hit_rate"] = ratio(float64(c.l1[0]), float64(c.l1[1]))
	mt["memsys.l2_hit_rate"] = ratio(float64(c.l2[0]), float64(c.l2[1]))
	mt["memsys.llc_hit_rate"] = ratio(float64(c.llc[0]), float64(c.llc[1]))
	mt["memsys.coverage"] = ratio(float64(c.covered), float64(c.covered+c.uncovered))
	mt["memsys.prefetch_accuracy"] = ratio(float64(c.useful), float64(c.useful+c.unused))
	for _, l := range []struct {
		prefix string
		name   spanName
	}{{"prefetch.l1", spL1Train}, {"spp", spSPPTrain}, {"core", spCoreTrain}} {
		mt[l.prefix+".train_ns"] = total[l.name]
		mt[l.prefix+".reqs_per_train"] = ratio(float64(c.reqs[l.name]), float64(c.calls[l.name]))
	}
	preds := float64(c.covp + c.accp + c.none)
	mt["core.pb_hit_rate"] = ratio(float64(c.pbHits), float64(c.pbLookups))
	mt["core.covp_share"] = ratio(float64(c.covp), preds)
	mt["core.accp_share"] = ratio(float64(c.accp), preds)
	mt["core.bw_q3_share"] = ratio(float64(c.bwq[3]), float64(c.bwq[0]+c.bwq[1]+c.bwq[2]+c.bwq[3]))
	mt["dram.reads_per_kref"] = ratio(float64(c.dram.Reads), float64(c.refs)/1000)
	mt["dram.row_hit_rate"] = ratio(float64(c.dram.RowHits), float64(c.dram.RowHits+c.dram.RowMisses))
	mt["dram.busy_frac"] = ratio(float64(c.dram.BusyCycles), c.busyCap)
	mt["dram.queue_cycles_per_req"] = ratio(float64(c.dram.QueueCycles), float64(c.dram.TotalCAS))
	mt["dram.avg_bw_gbps"] = ratio(c.bwBytes, c.bwSeconds) / 1e9
	for _, pf := range []sim.PF{sim.PFNone, sim.PFSPP, sim.PFDSPatch, sim.PFDSPatchSPP} {
		if cfgRefs[pf] == 0 {
			return fmt.Errorf("traced subset has no %s job", pf)
		}
		mt["sim.ns_per_ref."+strings.ReplaceAll(string(pf), "+", "_")] = float64(cfgNs[pf]) / float64(cfgRefs[pf])
	}
	mt["bench.trace_overhead"] = traced.Seconds() / untraced.Seconds()

	// Machine construction: a 1-ref run is all set-up.
	one := jobs[0]
	one.Opt.Refs, one.Opt.L2 = 1, sim.PFDSPatchSPP
	var setups []float64
	for i := 0; i < 30; i++ {
		start := time.Now()
		sim.Run(one.Workloads, one.Opt)
		setups = append(setups, float64(time.Since(start))/1e3)
	}
	mt["sim.machine_setup_us"] = median(setups)
	cfg.logf("  traced %d jobs: %.2f s traced, %.2f s untraced; %d spans", len(jobs), traced.Seconds(), untraced.Seconds(), len(t.spans))
	return nil
}

// engineLayer fills the experiment engine's metrics from its counters over
// an interval of wall time.
func engineLayer(o *outcome, before, after experiments.Counters, wall time.Duration) {
	simNs := float64(after.SimNanos - before.SimNanos)
	o.metrics["experiments.engine_overhead_frac"] = 1 - simNs/(float64(wall)*float64(runtime.GOMAXPROCS(0)))
	o.metrics["experiments.sims"] = float64(after.Sims - before.Sims)
	o.metrics["experiments.batches"] = float64(after.Batches - before.Batches)
	o.metrics["experiments.memo_hits"] = float64(after.MemoHits - before.MemoHits)
	o.metrics["experiments.disk_hits"] = float64(after.DiskHits - before.DiskHits)
}

// engineJobs runs jobs on a cold engine memo and fills the engine metrics.
func engineJobs(ctx context.Context, o *outcome, jobs []experiments.Job) error {
	experiments.ResetMemo()
	before := experiments.EngineCounters()
	start := time.Now()
	if _, err := experiments.RunJobs(ctx, jobs, 1); err != nil {
		return err
	}
	engineLayer(o, before, experiments.EngineCounters(), time.Since(start))
	return nil
}

// parallelSpeedup times an 8-config sim.RunBatch over j's trace at one and
// at two procs (or all there are), alternating so that host drift and
// warm-up fall on both sides, and returns the ratio of the medians.
func parallelSpeedup(o *outcome, j experiments.Job) {
	var opts []sim.Options
	for _, pf := range []sim.PF{sim.PFNone, sim.PFSPP, sim.PFDSPatch, sim.PFDSPatchSPP,
		sim.PFBOP, sim.PFSMS, sim.PFAMPM, sim.PFStreamer} {
		opt := j.Opt
		opt.L2 = pf
		opts = append(opts, opt)
	}
	timed := func(procs int) float64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		start := time.Now()
		sim.RunBatch(j.Workloads, opts)
		return float64(time.Since(start))
	}
	var one, two []float64
	var total float64
	for len(one) < 3 || total < float64(600*time.Millisecond) {
		one = append(one, timed(1))
		two = append(two, timed(min(2, runtime.NumCPU())))
		total += one[len(one)-1] + two[len(two)-1]
	}
	o.metrics["experiments.parallel_speedup"] = median(one) / median(two)
}

// timedStore counts and times the result-store writes of a campaign run.
type timedStore struct {
	experiments.ResultStore
	t    *tracer
	puts int
	dur  time.Duration
}

func (s *timedStore) Put(key string, res sim.Result) error {
	s.t.begin(spStorePut, 0)
	start := time.Now()
	err := s.ResultStore.Put(key, res)
	s.dur += time.Since(start)
	s.puts++
	s.t.end()
	return err
}

// sweepProbe runs camp directly through sweep.Engine.Run, journaled and
// stored as the daemon would, on an emptied memo.
func sweepProbe(ctx context.Context, o *outcome, t *tracer, camp sweep.Campaign) error {
	dir, err := os.MkdirTemp("", "dspatch-bench-sweep-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ds, err := experiments.NewDirStore(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	jl, err := sweep.CreateJournal(filepath.Join(dir, "probe.journal"), "probe", camp)
	if err != nil {
		return err
	}
	defer jl.Close()
	st := &timedStore{ResultStore: ds, t: t}
	experiments.ResetMemo()
	t.begin(spSweepRun, 0)
	start := time.Now()
	sum, err := (&sweep.Engine{Workers: 1, Journal: jl, Store: st}).Run(ctx, camp, nil)
	wall := time.Since(start)
	t.end()
	if err != nil {
		return err
	}
	o.expect(sum.Points > 0 && len(sum.DroppedPoints) == 0, "sweep probe: %d points, %d dropped", sum.Points, len(sum.DroppedPoints))
	o.metrics["sweep.engine_run_ms"] = ms(wall)
	o.metrics["sweep.store_put_us"] = ratio(float64(st.dur)/1e3, float64(st.puts))
	o.metrics["sweep.store_puts"] = float64(st.puts)
	return nil
}

// serviceLayer fills the service metrics from campaigns the clients ran:
// submission round trips, the job timestamps the daemon reports, and what
// the client waited beyond them. It records each campaign as a span tree.
func serviceLayer(ctx context.Context, o *outcome, t *tracer, url string, runs []campaignRun) error {
	cl := newClient(url)
	defer cl.tr.CloseIdleConnections()
	var submit, queue, run, overhead []float64
	for _, r := range runs {
		if r.err != nil {
			return fmt.Errorf("campaign %d: %w", r.index, r.err)
		}
		jv, err := cl.Job(ctx, r.id)
		if err != nil {
			return err
		}
		if jv.Started == nil || jv.Finished == nil {
			return fmt.Errorf("campaign %s has no start or finish time", r.id)
		}
		submitted, started, finished := jv.Submitted, *jv.Started, *jv.Finished
		submit = append(submit, ms(r.submitted.Sub(r.start)))
		queue = append(queue, ms(started.Sub(submitted)))
		run = append(run, ms(finished.Sub(started)))
		overhead = append(overhead, ms(r.end.Sub(r.start))-ms(finished.Sub(submitted)))
		id := uint64(r.index)
		root := t.add(spCampaign, id, -1, r.start, r.end)
		t.add(spSubmit, id, root, r.start, r.submitted)
		t.add(spQueueWait, id, root, submitted, started)
		t.add(spJobRun, id, root, started, finished)
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		return err
	}
	rejected := -1.0
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, "dspatchd_jobs_rejected_total "); ok {
			if rejected, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
				return err
			}
		}
	}
	if rejected < 0 {
		return fmt.Errorf("daemon metrics carry no dspatchd_jobs_rejected_total")
	}
	o.metrics["service.submit_ms"] = median(submit)
	o.metrics["service.queue_wait_ms"] = median(queue)
	o.metrics["service.job_run_ms"] = median(run)
	o.metrics["service.stream_overhead_ms"] = median(overhead)
	o.metrics["service.rejected_503"] = rejected
	return nil
}

// traceSetup materializes a workload's streams once on an empty store.
func traceSetup(o *outcome, streams []stream) {
	trace.ResetShared()
	runtime.GC()
	start := time.Now()
	materialize(streams)
	o.metrics["trace.materialize_s"] = time.Since(start).Seconds()
	o.metrics["trace.streams"] = float64(len(streams))
}

// traceSimWorkload is the traced run of a simulator workload: set-up, the
// traced subset, the engine over that subset, a campaign of the same shape
// run directly and then repeatedly through a daemon, and the 2-proc batch.
func traceSimWorkload(ctx context.Context, cfg config, name string, streams []stream, jobs []experiments.Job, probe sweep.Campaign) (*outcome, error) {
	o := newOutcome()
	traceSetup(o, streams)
	t := newTracer()
	if err := traceSim(ctx, cfg, o, t, jobs); err != nil {
		return nil, err
	}
	if err := engineJobs(ctx, o, jobs); err != nil {
		return nil, err
	}
	if err := sweepProbe(ctx, o, t, probe); err != nil {
		return nil, err
	}
	// The daemon serves the probe campaign from the engine memo the sweep
	// probe filled, so these campaigns measure the service path alone.
	env := svcEnv{durable: true}
	defer env.close()
	if err := env.start(); err != nil {
		return nil, err
	}
	pool := make([]sweep.Campaign, 8)
	for i := range pool {
		pool[i] = probe
	}
	runs := drive(ctx, env.d.url, pool)
	if err := serviceLayer(ctx, o, t, env.d.url, runs); err != nil {
		return nil, err
	}
	env.close()
	parallelSpeedup(o, jobs[0])
	return o, t.write(filepath.Join(cfg.spanDir, "spans-"+name+".tsv.gz"))
}

// tracedConfigs expands each job shape into the four configurations the
// traced run covers.
func tracedConfigs(shapes []experiments.Job) []experiments.Job {
	var jobs []experiments.Job
	for _, s := range shapes {
		for _, pf := range []sim.PF{sim.PFNone, sim.PFSPP, sim.PFDSPatch, sim.PFDSPatchSPP} {
			j := s
			j.Opt.L2 = pf
			jobs = append(jobs, j)
		}
	}
	return jobs
}

var probeL2 = []string{string(sim.PFNone), string(sim.PFSPP), string(sim.PFDSPatch), string(sim.PFDSPatchSPP)}

func traceSTRoster(ctx context.Context, cfg config) (*outcome, error) {
	all, _, err := roster()
	if err != nil {
		return nil, err
	}
	refs := cfg.size.stRefs
	var shapes []experiments.Job
	var mix []sweep.Mix
	for _, name := range []string{"tpcc", "mcf", "linpack"} {
		w, _ := trace.ByName(name)
		shapes = append(shapes, experiments.SingleJob(w, stMachine(refs, cfg.seed)))
		mix = append(mix, sweep.Mix{name})
	}
	probe := sweep.Campaign{
		Name: "bench-st-probe",
		Base: sweep.Point{Refs: refs},
		Axes: sweep.Axes{Workloads: mix, Seeds: []int64{cfg.seed}, L2: probeL2},
	}
	streams := jobStreams(headlineJobs(all, refs, cfg.seed))
	return traceSimWorkload(ctx, cfg, "st-roster", streams, tracedConfigs(shapes), probe)
}

func traceMP4(ctx context.Context, cfg config) (*outcome, error) {
	_, memInt, err := roster()
	if err != nil {
		return nil, err
	}
	mixes := drawMixes(memInt, cfg.size.mpMixes)
	var shapes []experiments.Job
	var mix []sweep.Mix
	for _, m := range mixes[:min(2, len(mixes))] {
		shapes = append(shapes, experiments.Job{Workloads: m, Opt: mpStarved(cfg.size.mpRefs, cfg.seed)})
		var names sweep.Mix
		for _, w := range m {
			names = append(names, w.Name)
		}
		mix = append(mix, names)
	}
	probe := sweep.Campaign{
		Name: "bench-mp4-probe",
		Base: sweep.Point{Refs: cfg.size.mpRefs, LLCBytes: 8 << 20, DRAMChannels: 1, DRAMMTps: 2133},
		Axes: sweep.Axes{Workloads: mix, Seeds: []int64{cfg.seed}, L2: probeL2},
	}
	streams := jobStreams(mp4Jobs(mixes, cfg.size.mpRefs, cfg.seed))
	return traceSimWorkload(ctx, cfg, "mp4-bwstarved", streams, tracedConfigs(shapes), probe)
}

// traceSvc is the traced run of a service workload: set-up, the traced
// machine on the first campaign's runs, one round of pool through the daemon
// env configures (after prepare readies it), a direct sweep.Engine.Run of
// next as the daemon would run it, and the 2-proc batch.
func traceSvc(ctx context.Context, cfg config, name string, env svcEnv, pool []sweep.Campaign, next sweep.Campaign,
	prepare func(env *svcEnv) error) (*outcome, error) {
	streams, err := campaignStreams(append(pool[:len(pool):len(pool)], next))
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	traceSetup(o, streams)
	t := newTracer()
	_, pts, err := pool[0].Expand()
	if err != nil {
		return nil, err
	}
	var shapes []experiments.Job
	for i := range pts {
		if pts[i].L2 == string(sim.PFNone) {
			shapes = append(shapes, pts[i].Job())
		}
	}
	jobs := tracedConfigs(shapes)
	if err := traceSim(ctx, cfg, o, t, jobs); err != nil {
		return nil, err
	}

	defer env.close()
	if err := env.start(); err != nil {
		return nil, err
	}
	if prepare != nil {
		if err := prepare(&env); err != nil {
			return nil, err
		}
	}
	before := experiments.EngineCounters()
	start := time.Now()
	runs := drive(ctx, env.d.url, pool)
	engineLayer(o, before, experiments.EngineCounters(), time.Since(start))
	checkRuns(ctx, o, env.d.url, runs)
	if err := serviceLayer(ctx, o, t, env.d.url, runs); err != nil {
		return nil, err
	}
	if err := sweepProbe(ctx, o, t, next); err != nil {
		return nil, err
	}
	env.close()
	parallelSpeedup(o, jobs[0])
	cfg.logf("  service round: %d campaigns", len(runs))
	return o, t.write(filepath.Join(cfg.spanDir, "spans-"+name+".tsv.gz"))
}

// traceRoundSize is how many pool campaigns a traced service round runs.
const traceRoundSize = 8

func traceSvcCold(ctx context.Context, cfg config) (*outcome, error) {
	all, _, err := roster()
	if err != nil {
		return nil, err
	}
	pool := campaignPool(all, traceRoundSize+1, cfg.size.svcRefs, cfg.seed)
	return traceSvc(ctx, cfg, "svc-cold", svcEnv{durable: true}, pool[:traceRoundSize], pool[traceRoundSize], nil)
}

func traceSvcWarm(ctx context.Context, cfg config) (*outcome, error) {
	all, _, err := roster()
	if err != nil {
		return nil, err
	}
	pool := campaignPool(all, traceRoundSize, cfg.size.svcRefs, cfg.seed)
	// The round and the direct run both read the seeded results back.
	return traceSvc(ctx, cfg, "svc-warm", svcEnv{durable: false}, pool, pool[0], func(env *svcEnv) error {
		if err := seedPass(ctx, env, pool); err != nil {
			return err
		}
		return env.restart()
	})
}
