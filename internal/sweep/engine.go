package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/prefstats"
	"dspatch/internal/sim"
	"dspatch/internal/stats"
	"dspatch/internal/trace"
)

// Header is the first NDJSON record of a campaign stream: the resolved shape
// of the sweep. It is a pure function of the spec.
type Header struct {
	Type       string `json:"type"` // "campaign"
	Name       string `json:"name,omitempty"`
	Strategy   string `json:"strategy"`
	Grid       int64  `json:"grid"`   // full cross-product size
	Points     int    `json:"points"` // points this campaign will emit
	BaselineL2 string `json:"baseline_l2"`
}

// Metrics is the per-point slice of sim.Result a campaign reports (pollution
// fractions and per-port stats are not part of the stream).
type Metrics struct {
	IPC              []float64 `json:"ipc"`
	Cycles           uint64    `json:"cycles"`
	Coverage         float64   `json:"coverage"`
	MispredRate      float64   `json:"mispred_rate"`
	Accuracy         float64   `json:"accuracy"`
	AvgBandwidthGBps float64   `json:"avg_bw_gbps"`
	PeakBandwidth    float64   `json:"peak_bw_gbps"`
}

func metricsOf(r sim.Result) Metrics {
	return Metrics{
		IPC:              r.IPC,
		Cycles:           r.Cycles,
		Coverage:         r.Coverage,
		MispredRate:      r.MispredRate,
		Accuracy:         r.Accuracy,
		AvgBandwidthGBps: r.AvgBandwidthGBps,
		PeakBandwidth:    r.PeakBandwidth,
	}
}

// PointRecord is one completed point. Records are emitted in canonical index
// order and are byte-identical across runs of the same spec: they carry no
// timing or cache provenance.
type PointRecord struct {
	Type  string `json:"type"` // "point"
	Index int64  `json:"index"`
	Point Point  `json:"point"`
	// Metrics of this point's own run.
	Metrics Metrics `json:"metrics"`
	// Speedup holds per-lane IPC ratios against the baseline partner (this
	// point with l2 = baseline_l2); absent on baseline points.
	Speedup []float64 `json:"speedup,omitempty"`
	// Baseline marks points whose own l2 is the designated baseline.
	Baseline bool `json:"baseline,omitempty"`
	// Prefetchers carries the point's per-prefetcher telemetry snapshot;
	// present only when the point set collect_stats. The prefstats schema
	// marshals deterministically, so stats-bearing streams stay
	// byte-identical across runs.
	Prefetchers []sim.PrefetcherStats `json:"prefetchers,omitempty"`
}

// EngineDelta is the experiment-engine work this campaign run caused —
// the resumability ledger: a fully-cached resubmission shows Sims == 0.
type EngineDelta struct {
	Sims     uint64 `json:"sims"`
	MemoHits uint64 `json:"memo_hits"`
	DiskHits uint64 `json:"disk_hits"`
}

// DroppedPoint records a point a fleet run abandoned after exhausting its
// dispatch retries: the point's record is missing from the stream, and this
// entry says why. Local runs never drop points.
type DroppedPoint struct {
	Index  int64  `json:"index"`
	Point  Point  `json:"point"`
	Reason string `json:"reason"`
}

// FleetSummary is coordinator telemetry attached to a fleet-executed
// campaign's Summary. Like Engine and ElapsedMS it is not deterministic:
// two runs of one spec through different failure weather report different
// dispatch counts while emitting byte-identical point records.
type FleetSummary struct {
	Workers        int    `json:"workers"`
	Dispatches     uint64 `json:"dispatches"`
	Redispatches   uint64 `json:"redispatches"`
	LeasesExpired  uint64 `json:"leases_expired"`
	ShedRejections uint64 `json:"shed_rejections"`
	WorkersEjected uint64 `json:"workers_ejected"`
	StoreHits      uint64 `json:"store_hits"`
}

// Summary is the final NDJSON record: cross-point aggregation plus run
// telemetry. Everything except DroppedPoints, Fleet, Engine and ElapsedMS
// is deterministic.
type Summary struct {
	Type           string `json:"type"` // "summary"
	Name           string `json:"name,omitempty"`
	Points         int    `json:"points"`
	BaselinePoints int    `json:"baseline_points"`
	// Dropped counts degenerate lane ratios (zero/non-finite speedups)
	// excluded from every aggregate below.
	Dropped int `json:"dropped"`
	// GeomeanSpeedupPct aggregates every non-baseline lane ratio; absent
	// when the campaign had none (all-baseline sweeps).
	GeomeanSpeedupPct *float64 `json:"geomean_speedup_pct,omitempty"`
	// Marginals[axis][value] is the geomean speedup (%) of the non-baseline
	// points carrying that axis value — one marginal per swept axis.
	Marginals map[string]map[string]float64 `json:"marginals,omitempty"`
	// DroppedPoints lists points a fleet run abandoned, with reasons, in
	// index order; absent on local runs and clean fleet runs. Every point
	// record missing from the stream is accounted for here — nothing is
	// lost silently.
	DroppedPoints []DroppedPoint `json:"dropped_points,omitempty"`
	// Fleet is coordinator telemetry; absent on local runs.
	Fleet *FleetSummary `json:"fleet,omitempty"`
	// Prefetchers aggregates per-prefetcher telemetry across every
	// stats-collecting point (merged by model name, in flush order — index
	// order — so the aggregate is deterministic); absent when no point set
	// collect_stats.
	Prefetchers []sim.PrefetcherStats `json:"prefetchers,omitempty"`
	// Engine and ElapsedMS are telemetry, not results: they differ between a
	// cold run and a resumed one.
	Engine    EngineDelta `json:"engine"`
	ElapsedMS int64       `json:"elapsed_ms"`
}

// Recorder turns completed point results into the campaign's canonical
// NDJSON stream. It is the single authority on stream bytes: Engine feeds
// it every result, whether a local batch or a fleet worker produced it (in
// whatever order execution happens to finish them), and the Recorder
// buffers, aggregates and emits strictly in canonical index order — which
// is why a campaign run through a flaky fleet is byte-identical to a local
// run. Methods must be called from one goroutine at a time.
type Recorder struct {
	c    Campaign
	emit func(json.RawMessage) error
	idxs []int64
	pts  []Point
	bl   string
	axes []axis

	line      []byte // emitPoint's scratch
	pending   []*PointRecord
	droppedAt []string // non-empty: drop reason; flush skips the position
	flushed   int

	allRatios      []float64
	marginPools    map[string]map[string][]float64
	baselinePoints int
	droppedPoints  []DroppedPoint
	prefStats      []sim.PrefetcherStats

	start time.Time
	c0    experiments.Counters
}

// NewRecorder emits the header of p's campaign and returns a Recorder ready
// to receive completions for positions 0..Len()-1.
func NewRecorder(p *Plan, emit func(json.RawMessage) error) (*Recorder, error) {
	start := time.Now()
	c0 := experiments.EngineCounters()
	grid, _ := gridSize(p.axes) // Plan has rejected a grid that overflows
	r := &Recorder{
		c:           p.c,
		emit:        emit,
		idxs:        p.idxs,
		pts:         p.pts,
		bl:          p.c.baselineL2(),
		axes:        p.axes,
		pending:     make([]*PointRecord, len(p.pts)),
		droppedAt:   make([]string, len(p.pts)),
		marginPools: map[string]map[string][]float64{},
		line:        make([]byte, 0, 512), // a point record fits
		start:       start,
		c0:          c0,
	}
	if err := emitRec(emit, Header{
		Type:       "campaign",
		Name:       p.c.Name,
		Strategy:   strategyName(p.c.Sample.Strategy),
		Grid:       grid,
		Points:     len(p.pts),
		BaselineL2: r.bl,
	}); err != nil {
		return nil, err
	}
	return r, nil
}

// Len is the number of points the campaign will emit.
func (r *Recorder) Len() int { return len(r.pts) }

// Pair returns position pos's own point and, for non-baseline points, the
// baseline partner whose result its speedup is computed against.
func (r *Recorder) Pair(pos int) (self, base Point, hasBase bool) {
	self = r.pts[pos]
	if self.L2 == r.bl {
		return self, Point{}, false
	}
	base = self
	base.L2 = r.bl
	return self, base, true
}

// Resolved reports whether position pos already has a terminal outcome —
// emitted, buffered for emission, or dropped. Journal replay and late fleet
// events both lean on this: the first resolution of a position wins, and
// every later Complete or Drop for it is a no-op.
func (r *Recorder) Resolved(pos int) bool {
	return pos < r.flushed || r.droppedAt[pos] != "" || r.pending[pos] != nil
}

// Complete records position pos's results (base nil for baseline points)
// and flushes every record the completion unblocked. Completing an
// already-resolved position — one that was dropped, or whose record was
// already emitted — is a no-op: the stream never rewinds.
func (r *Recorder) Complete(pos int, self sim.Result, base *sim.Result) error {
	if r.Resolved(pos) {
		return nil
	}
	rec := PointRecord{
		Type:        "point",
		Index:       r.idxs[pos],
		Point:       r.pts[pos],
		Metrics:     metricsOf(self),
		Prefetchers: self.Prefetchers,
	}
	if base == nil {
		rec.Baseline = true
	} else {
		rec.Speedup = sim.Speedup(*base, self)
	}
	if pos != r.flushed {
		buffered := rec
		r.pending[pos] = &buffered
		return nil // an earlier position is still open
	}
	if err := r.record(&rec); err != nil {
		return err
	}
	return r.flush()
}

// Drop abandons position pos with a reason: no point record is emitted, the
// stream continues past it, and the summary accounts for it under
// dropped_points.
func (r *Recorder) Drop(pos int, reason string) error {
	if r.Resolved(pos) {
		return nil // already resolved; first resolution wins
	}
	r.droppedAt[pos] = reason
	r.droppedPoints = append(r.droppedPoints, DroppedPoint{
		Index: r.idxs[pos], Point: r.pts[pos], Reason: reason,
	})
	return r.flush()
}

// flush emits (and aggregates) buffered records strictly in index order,
// stopping at the first unresolved position. Aggregation happens here — in
// flush order, never completion order — so every float accumulation is a
// pure function of the spec.
func (r *Recorder) flush() error {
	for r.flushed < len(r.pts) {
		if r.droppedAt[r.flushed] != "" {
			r.flushed++
			continue
		}
		rec := r.pending[r.flushed]
		if rec == nil {
			return nil
		}
		r.pending[r.flushed] = nil
		if err := r.record(rec); err != nil {
			return err
		}
	}
	return nil
}

// record aggregates rec, the record of position r.flushed, and emits it.
func (r *Recorder) record(rec *PointRecord) error {
	if rec.Baseline {
		r.baselinePoints++
	} else {
		r.allRatios = append(r.allRatios, rec.Speedup...)
		coord := r.idxs[r.flushed]
		for a := len(r.axes) - 1; a >= 0; a-- {
			ax := r.axes[a]
			vi := int(coord % int64(ax.n))
			coord /= int64(ax.n)
			if ax.n < 2 {
				continue
			}
			pool := r.marginPools[ax.name]
			if pool == nil {
				pool = map[string][]float64{}
				r.marginPools[ax.name] = pool
			}
			pool[ax.label(vi)] = append(pool[ax.label(vi)], rec.Speedup...)
		}
	}
	if len(rec.Prefetchers) > 0 {
		r.prefStats = prefstats.Merge(r.prefStats, rec.Prefetchers)
	}
	if err := r.emitPoint(rec); err != nil {
		return err
	}
	r.flushed++
	return nil
}

// emitPoint encodes rec into the Recorder's scratch buffer and emits a copy
// of it, which emit may keep.
func (r *Recorder) emitPoint(rec *PointRecord) error {
	if r.emit == nil {
		return nil
	}
	line, ok := appendPointRecord(r.line[:0], rec)
	r.line = line
	if !ok {
		return emitRec(r.emit, *rec) // the marshal error says what failed
	}
	return r.emit(bytes.Clone(line))
}

// Finish emits the summary record and returns it. Every position must have
// been completed or dropped. fleet, when non-nil, is attached as
// coordinator telemetry.
func (r *Recorder) Finish(fleet *FleetSummary) (Summary, error) {
	if err := r.flush(); err != nil {
		return Summary{}, err
	}
	if r.flushed != len(r.pts) {
		return Summary{}, fmt.Errorf("sweep: campaign finished with %d of %d points unresolved",
			len(r.pts)-r.flushed, len(r.pts))
	}
	sum := Summary{
		Type:           "summary",
		Name:           r.c.Name,
		Points:         len(r.pts),
		BaselinePoints: r.baselinePoints,
	}
	kept, dropped := stats.FiniteRatios(r.allRatios)
	sum.Dropped = dropped
	if len(kept) > 0 {
		g := stats.GeomeanSpeedupPct(kept)
		sum.GeomeanSpeedupPct = &g
	}
	for name, pool := range r.marginPools {
		for label, ratios := range pool {
			g := stats.GeomeanSpeedupPct(ratios)
			if math.IsNaN(g) {
				continue
			}
			if sum.Marginals == nil {
				sum.Marginals = map[string]map[string]float64{}
			}
			if sum.Marginals[name] == nil {
				sum.Marginals[name] = map[string]float64{}
			}
			sum.Marginals[name][label] = g
		}
	}
	if len(r.droppedPoints) > 0 {
		sort.Slice(r.droppedPoints, func(i, j int) bool {
			return r.droppedPoints[i].Index < r.droppedPoints[j].Index
		})
		sum.DroppedPoints = r.droppedPoints
	}
	sum.Prefetchers = r.prefStats
	sum.Fleet = fleet
	c1 := experiments.EngineCounters()
	sum.Engine = EngineDelta{
		Sims:     c1.Sims - r.c0.Sims,
		MemoHits: c1.MemoHits - r.c0.MemoHits,
		DiskHits: c1.DiskHits - r.c0.DiskHits,
	}
	sum.ElapsedMS = time.Since(r.start).Milliseconds()
	if err := emitRec(r.emit, sum); err != nil {
		return Summary{}, err
	}
	return sum, nil
}

// Engine executes campaigns. It owns a campaign's whole lifecycle — the
// Recorder, deduplication into runs, journal replay, the result-store
// pre-pass, the durable completion order, drops and the seal — for local
// and fleet campaigns alike; only how a pending run gets its result differs
// (see Executor). The zero value is ready to use.
type Engine struct {
	// Workers is the simulation parallelism per local batch (0 = GOMAXPROCS).
	Workers int

	// Journal, when non-nil, receives a durable record of every terminal
	// point event and the final sealed summary, making the campaign
	// crash-recoverable. Requires Store: the journal references results by
	// store key and only claims a point after its results are in the store.
	Journal *Journal
	// Store, when non-nil, is the ResultStore runs are looked up in before
	// they execute, persisted to once they complete, and rehydrated from on
	// resume. When it is also the experiment engine's store (see
	// experiments.SetResultStore), as in dspatchd, a run the engine read
	// from or wrote to it is not written again.
	Store experiments.ResultStore
	// Resume, when non-nil, is a recovered journal's state: journaled
	// completions replay from Store with zero simulations and only the
	// unfinished tail runs. Requires Store.
	Resume *JournalState
	// Logf, when non-nil, receives degradation notices (a failing journal
	// or store stops being written to, never fails the campaign).
	Logf func(format string, args ...any)
}

func (e *Engine) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
	}
}

// An Executor produces the results of a campaign's pending runs, reporting
// each through rs.Complete or rs.Drop, and returns once rs.Open() reaches
// zero. It never touches the Recorder, journal or store: Engine owns them.
// The FleetSummary it returns, when non-nil, is attached to the campaign
// summary as coordinator telemetry.
type Executor func(ctx context.Context, rs *Runs) (*FleetSummary, error)

// Run expands c and executes every point locally, calling emit with each
// marshaled NDJSON record (header, points in index order, summary) as it
// becomes available. Batches of runs flow through experiments.RunJobs, so
// every point shares the engine's memo and persistent disk cache with every
// other front end — a resubmitted campaign re-simulates only points the
// caches have never seen. A non-nil error from emit or ctx aborts the
// campaign.
func (e *Engine) Run(ctx context.Context, c Campaign, emit func(json.RawMessage) error) (Summary, error) {
	p, err := c.Plan()
	if err != nil {
		return Summary{}, err
	}
	return e.RunWith(ctx, p, emit, nil)
}

// RunWith is Run for an expanded campaign, with the pending runs executed
// by exec instead of the local engine — the fleet coordinator's hook. A nil
// exec is the local engine.
func (e *Engine) RunWith(ctx context.Context, p *Plan, emit func(json.RawMessage) error, exec Executor) (Summary, error) {
	if (e.Journal != nil || e.Resume != nil) && e.Store == nil {
		return Summary{}, fmt.Errorf("sweep: journaled campaign needs a result store")
	}
	rec, err := NewRecorder(p, emit)
	if err != nil {
		return Summary{}, err
	}

	// Resume: journaled terminal events replay through the Recorder before
	// anything is scheduled — completions rehydrate from the store with zero
	// simulations, drops re-drop, and only the unresolved tail runs below.
	var resolved []bool
	if e.Resume != nil {
		if resolved, err = e.Resume.replay(rec, e.Store); err != nil {
			return Summary{}, err
		}
	}

	// Scheduling order: points regrouped by trace identity, so configs
	// sharing one (mix, seed, refs) stream land in the same RunJobs call and
	// advance in lockstep over a single trace walk. Only scheduling changes:
	// the Recorder emits (and accumulates every float aggregate) strictly in
	// index order, so the NDJSON stream is independent of it.
	rs := newRuns(e, rec, groupedOrder(rec.pts), resolved)

	// Store pre-pass: runs the store already holds complete without
	// executing. A torn or corrupt entry reads as a miss and the run
	// executes again — the store is never trusted blindly. A local campaign
	// on the experiment engine's own store skips it: the engine looks every
	// run up in that store itself (a disk hit in its counters), so one
	// lookup serves.
	prepass := rs.store != nil
	if exec == nil {
		exec = e.runLocal
		prepass = prepass && rs.store != experiments.EngineStore()
	}
	var storeHits uint64
	pending := rs.pending[:0]
	for _, r := range rs.pending {
		if prepass {
			if res, ok := rs.store.Get(r.runKey()); ok {
				storeHits++
				r.durable = true
				if err := rs.complete(r, res); err != nil {
					return Summary{}, err
				}
				continue
			}
		}
		pending = append(pending, r)
	}
	rs.pending = pending

	fleet, err := exec(ctx, rs)
	if err != nil {
		return Summary{}, err
	}
	if fleet != nil {
		fleet.StoreHits = storeHits
	}
	sum, err := rec.Finish(fleet)
	if err != nil {
		return Summary{}, err
	}
	if rs.jl != nil {
		if b, merr := json.Marshal(sum); merr == nil {
			if err := rs.jl.Seal(b); err != nil {
				e.logf("campaign journal seal failed: %v", err)
			}
		}
	}
	return sum, nil
}

// runLocal executes the pending runs on the process-shared experiment
// engine, one batch per Workers (or GOMAXPROCS) trace-identity groups of the
// schedule, so a group's points stream as soon as its lockstep batch
// finishes. Results are identical at any batch size.
func (e *Engine) runLocal(ctx context.Context, rs *Runs) (*FleetSummary, error) {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	jobs := make([]experiments.Job, 0, len(rs.pending))
	for lo := 0; lo < len(rs.pending); {
		hi := lo
		jobs = jobs[:0]
		for groups := 1; hi < len(rs.pending); hi++ {
			if hi > lo && rs.pending[hi].group != rs.pending[hi-1].group {
				if groups++; groups > w {
					break
				}
			}
			jobs = append(jobs, rs.pending[hi].job)
		}
		results, err := experiments.RunJobs(ctx, jobs, e.Workers)
		if err != nil {
			return nil, err
		}
		for i := lo; i < hi; i++ {
			if err := rs.Complete(i, results[i-lo]); err != nil {
				return nil, err
			}
		}
		lo = hi
	}
	return nil, nil
}

// run is one deduplicated simulation a campaign needs, and the point
// positions waiting on it.
type run struct {
	id      experiments.RunID
	key     string // canonical run key, rendered on first use (see runKey)
	pt      Point
	job     experiments.Job
	group   int // schedule group of the first point needing it
	res     sim.Result
	done    bool // res is final
	durable bool // the result is in the store: a journal frame may cite it
	waiters []int
	inline  [2]int            // waiters' first backing: most runs have one or two
	lane    [1]trace.Workload // job.Workloads' backing when it has one lane
}

// runKey is r's canonical key, the result-store key. It is rendered lazily:
// a local campaign without a store never needs it.
func (r *run) runKey() string {
	if r.key == "" {
		r.key = r.id.String()
	}
	return r.key
}

// Runs is a campaign's pending work as an Executor sees it: the
// deduplicated simulation runs — every unresolved point's own run plus its
// baseline partner's, each listed once however many points share it — in
// schedule order. Reporting a run settles every point waiting on it, in
// the one durable order: store Put, then journal frame, then Recorder.
// Methods must be called from one goroutine at a time.
type Runs struct {
	e     *Engine
	rec   *Recorder
	jl    *Journal
	store experiments.ResultStore

	pending []*run // the runs left to execute
	self    []*run // per position: its own run (nil for points replay resolved)
	base    []*run // per position: its baseline partner's run, if any
	need    []int  // per position: runs still missing
	open    int    // positions not yet completed or dropped
}

// runSlab caps the runs newRuns allocates at once, so a resumed campaign
// with few points left does not allocate runs for the whole grid.
const runSlab = 64

// newRuns deduplicates the points of groups that replay left unresolved into
// runs: each point's baseline partner, then its own run. The runs live in
// slabs of one per point (at most runSlab), the usual count when the
// baseline is on the l2 axis; a full slab is left in place and a new one
// started, so no run moves.
func newRuns(e *Engine, rec *Recorder, groups [][]int, resolved []bool) *Runs {
	n := rec.Len()
	rs := &Runs{
		e: e, rec: rec, jl: e.Journal, store: e.Store,
		self: make([]*run, n), base: make([]*run, n), need: make([]int, n),
		pending: make([]*run, 0, n),
	}
	var slab []run
	at := make(map[experiments.RunID]*run, n)
	add := func(p Point, pos, group int) *run {
		var lanes [MaxRunLanes]trace.Workload // the job's lanes while it is looked up
		id := experiments.JobID(p.job(lanes[:len(p.Workloads)]))
		r := at[id]
		if r == nil {
			if len(slab) == cap(slab) {
				slab = make([]run, 0, min(n, runSlab))
			}
			slab = append(slab, run{id: id, pt: p, group: group})
			r = &slab[len(slab)-1]
			if len(p.Workloads) == 1 {
				r.job = p.job(r.lane[:])
			} else {
				r.job = p.Job()
			}
			r.waiters = r.inline[:0]
			at[id] = r
			rs.pending = append(rs.pending, r)
		}
		if k := len(r.waiters); k == 0 || r.waiters[k-1] != pos {
			r.waiters = append(r.waiters, pos)
			rs.need[pos]++
		}
		return r
	}
	for g, group := range groups {
		for _, pos := range group {
			if resolved != nil && resolved[pos] {
				continue
			}
			self, base, hasBase := rec.Pair(pos)
			if hasBase {
				rs.base[pos] = add(base, pos, g)
			}
			rs.self[pos] = add(self, pos, g)
			rs.open++
		}
	}
	return rs
}

// Len is the number of pending runs.
func (rs *Runs) Len() int { return len(rs.pending) }

// Key is pending run i's canonical key (stable across campaigns).
func (rs *Runs) Key(i int) string { return rs.pending[i].runKey() }

// Point is the normalized point pending run i simulates.
func (rs *Runs) Point(i int) Point { return rs.pending[i].pt }

// Open is the number of points not yet completed or dropped.
func (rs *Runs) Open() int { return rs.open }

// Complete delivers pending run i's result to every point waiting on it.
// Completing a run twice is a no-op.
func (rs *Runs) Complete(i int, res sim.Result) error { return rs.complete(rs.pending[i], res) }

// complete persists r's result, then journals and records every waiting
// point the result finishes. A run the experiment engine already read from
// or wrote to this very store instance is durable as it stands, so a daemon
// whose engine and campaigns share one store writes each run once. A failing
// store or journal degrades — the campaign keeps running, it just stops
// being resumable from that event on.
func (rs *Runs) complete(r *run, res sim.Result) error {
	if r.done {
		return nil
	}
	r.res, r.done = res, true
	if !r.durable && experiments.Stored(r.id, rs.store) {
		r.durable = true
	}
	if !r.durable && rs.store != nil {
		if err := rs.store.Put(r.runKey(), res); err != nil {
			rs.e.logf("campaign store degraded, results no longer durable: %v", err)
			rs.store = nil
		} else {
			r.durable = true
		}
	}
	for _, pos := range r.waiters {
		if rs.rec.Resolved(pos) {
			continue // dropped through its other run
		}
		if rs.need[pos]--; rs.need[pos] > 0 {
			continue
		}
		self, base := rs.self[pos], rs.base[pos]
		// The journal claims a point only once its results are durable, so a
		// replay either finds them or safely re-runs the point.
		if rs.jl != nil && self.durable && (base == nil || base.durable) {
			baseKey := ""
			if base != nil {
				baseKey = base.runKey()
			}
			if err := rs.jl.Done(pos, self.runKey(), baseKey); err != nil {
				rs.degradeJournal(err)
			}
		}
		var baseRes *sim.Result
		if base != nil {
			baseRes = &base.res
		}
		if err := rs.rec.Complete(pos, self.res, baseRes); err != nil {
			return err
		}
		rs.open--
	}
	return nil
}

// Drop abandons every point still waiting on pending run i, with a reason
// the summary reports under dropped_points.
func (rs *Runs) Drop(i int, reason string) error {
	for _, pos := range rs.pending[i].waiters {
		if rs.rec.Resolved(pos) {
			continue
		}
		if rs.jl != nil {
			if err := rs.jl.Drop(pos, reason); err != nil {
				rs.degradeJournal(err)
			}
		}
		if err := rs.rec.Drop(pos, reason); err != nil {
			return err
		}
		rs.open--
	}
	return nil
}

func (rs *Runs) degradeJournal(err error) {
	rs.e.logf("campaign journal degraded, run no longer resumable: %v", err)
	rs.jl = nil
}

func strategyName(s string) string {
	if s == "" {
		return StrategyGrid
	}
	return s
}

// groupedOrder returns point positions grouped by trace identity — the
// (workload mix, refs, seed) triple jobs must share to batch — keeping
// first-appearance order between groups and index order within each, so the
// schedule is a pure function of the point list.
func groupedOrder(pts []Point) [][]int {
	type traceID struct {
		mix  string
		refs int
		seed int64
	}
	at := map[traceID]int{}
	var groups [][]int
	for i, p := range pts {
		k := traceID{strings.Join(p.Workloads, "\x01"), p.Refs, p.Seed}
		g, ok := at[k]
		if !ok {
			g = len(groups)
			at[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

func emitRec(emit func(json.RawMessage) error, v any) error {
	if emit == nil {
		return nil
	}
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: marshal record: %w", err)
	}
	return emit(line)
}

// NDJSONEmitter adapts an io.Writer into an emit callback: one record per
// line, flushed to w as it completes.
func NDJSONEmitter(w io.Writer) func(json.RawMessage) error {
	return func(line json.RawMessage) error {
		if _, err := w.Write(line); err != nil {
			return err
		}
		_, err := w.Write([]byte("\n"))
		return err
	}
}
