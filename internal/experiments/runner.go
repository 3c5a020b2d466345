package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dspatch/internal/dram"
	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// Job is one simulation the engine schedules: a workload mix (one entry =
// single-thread, four = the paper's multi-programmed machine) run under Opt.
type Job struct {
	Workloads []trace.Workload
	Opt       sim.Options
}

// SingleJob is shorthand for a one-core job.
func SingleJob(w trace.Workload, opt sim.Options) Job {
	return Job{Workloads: []trace.Workload{w}, Opt: opt}
}

// runKey identifies a run: every option that affects a
// simulation's outcome and nothing that doesn't. Simulations are
// deterministic functions of this key, so figures that share runs — Figs. 4
// and 6 share every BOP/SMS/SPP point, Figs. 12/14 and the headline share
// the SPP and DSPatch+SPP runs, and every figure shares baselines — simulate
// each distinct configuration exactly once per process.
//
// The key is at most 128 bytes, the largest key a Go map stores inline: a
// larger one is copied to the heap on every insert into the memo (and into
// a campaign's run table). The small fields are narrowed to fit, losslessly:
// memoizable rejects the values a narrow field cannot hold.
type runKey struct {
	names    string
	dram     dram.Config
	llcBytes int
	refs     int
	seed     int64
	// smsPHT is kept only for the one prefetcher it parameterizes, so
	// Fig. 5's four-point sweep still shares a single baseline per workload.
	smsPHT     int32
	l2         uint8 // index of the L2 prefetcher in sim.AllPFs
	noL1Stride bool
	// collectStats is part of the key even though it cannot change core
	// metrics: a stats-off result carries no Prefetchers snapshot, and
	// serving it to a stats-on request (or vice versa) would make the memo
	// lossy.
	collectStats bool
	// trackPollution keys the Fig. 20 victim taxonomy the same way: it only
	// adds Result.Pollution, which a pollution-off result lacks.
	trackPollution bool
}

// memoizable returns j's cache key. Every run is memoizable: a Result is
// plain data, and the key covers every option that shapes it. It panics on
// an L2 prefetcher outside sim.AllPFs or an SMS table size beyond int32,
// neither of which the simulator could build either (sim.KnownPF checks the
// first for untrusted input).
func memoizable(j Job) runKey {
	var names string // lane names joined by NUL: a lone builtin lane is its name, with no allocation
	for i, w := range j.Workloads {
		name := w.Name
		// Non-builtin workloads fold their content fingerprint into the key:
		// an imported trace or registered spec is cached by what it contains,
		// so renaming identical content still hits and editing a spec misses.
		// Builtin fingerprints are empty, keeping historical cache entries
		// valid.
		if w.Fingerprint != "" {
			name += "\x01" + w.Fingerprint
		}
		if i > 0 {
			name = names + "\x00" + name
		}
		names = name
	}
	l2 := pfIndex(j.Opt.L2)
	var smsPHT int32
	if sim.AllPFs[l2] == sim.PFSMS {
		smsPHT = int32(j.Opt.SMSPHTEntries)
		if int(smsPHT) != j.Opt.SMSPHTEntries {
			panic(fmt.Sprintf("experiments: SMS PHT entries %d out of range", j.Opt.SMSPHTEntries))
		}
	}
	return runKey{
		names:          names,
		dram:           j.Opt.DRAM,
		llcBytes:       j.Opt.LLCBytes,
		refs:           j.Opt.Refs,
		seed:           j.Opt.Seed,
		smsPHT:         smsPHT,
		l2:             l2,
		noL1Stride:     j.Opt.NoL1Stride,
		collectStats:   j.Opt.CollectStats,
		trackPollution: j.Opt.TrackPollution,
	}
}

// pfIndex returns p's index in sim.AllPFs; "" is PFNone, the first.
func pfIndex(p sim.PF) uint8 {
	if p == "" {
		p = sim.PFNone
	}
	for i, q := range sim.AllPFs {
		if p == q {
			return uint8(i)
		}
	}
	panic("experiments: unknown prefetcher " + strconv.Quote(string(p)))
}

// memoEntry computes its result once under the ownership of whichever
// request installed it, so two distinct baselines never serialize on each
// other and a duplicate submitted concurrently waits for the first instead of
// re-simulating. Ownership is decided at insertion (the inserter computes,
// everyone else waits on ready), which lets the batch scheduler claim several
// entries up front and fill them from one lockstep run. A canceled
// computation records err; observers drop the entry from the memo so a later
// request recomputes instead of inheriting the cancellation.
type memoEntry struct {
	// ready is held by the owner until res/err/panicked/in are final (see
	// finish); waiters Wait on it.
	ready    sync.WaitGroup
	final    atomic.Bool // set by finish, for a check that does not wait
	res      sim.Result
	err      error
	panicked any // recovered panic value; re-raised for every observer
	// in is the store instance res was read from or written to, nil when
	// it reached none: a caller persisting res to the same store skips the
	// second write (see Stored).
	in ResultStore
}

// finish publishes e's outcome to its waiters.
func (e *memoEntry) finish() {
	e.final.Store(true)
	e.ready.Done()
}

// Counters is a monotonic snapshot of the engine's work ledger. Long-running
// callers (the dspatchd daemon's /metrics, tests proving cache behaviour)
// read it before and after an operation and look at the deltas.
type Counters struct {
	// Sims counts simulations actually executed (cold runs).
	Sims uint64
	// MemoHits counts runs served from the in-process memo without
	// simulating — including concurrent duplicates that waited on the
	// first computation.
	MemoHits uint64
	// DiskHits counts runs loaded from the persistent -cache-dir store.
	DiskHits uint64
	// RefsSimulated totals memory references of cold runs (refs × lanes).
	RefsSimulated uint64
	// SimNanos totals wall time spent inside cold simulations. A lockstep
	// batch contributes its wall time once, however many configs it carried,
	// so with RefsSimulated this yields the engine's aggregate refs/s —
	// including the batching speedup.
	SimNanos uint64
	// Batches counts multi-config lockstep batches executed (each also adds
	// one Sims per member config).
	Batches uint64
}

// Runner fans simulation jobs across a goroutine pool and memoizes every
// run, so each distinct (workload mix, options) configuration simulates
// exactly once per process no matter how many figures request it.
type Runner struct {
	workers int

	mu    sync.Mutex
	memo  map[runKey]*memoEntry
	store ResultStore // non-nil: persistent run cache backend (diskcache.go)

	// cacheWriteOff latches after the first failed store write: the backend
	// is degraded (disk full, permissions), so further writes are skipped
	// while reads and simulation continue.
	cacheWriteOff atomic.Bool

	sims     atomic.Uint64
	memoHits atomic.Uint64
	diskHits atomic.Uint64
	refsSim  atomic.Uint64
	simNanos atomic.Uint64
	batches  atomic.Uint64
}

// NewRunner returns a Runner whose default pool width is workers
// (<= 0 means runtime.GOMAXPROCS(0)).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers, memo: map[runKey]*memoEntry{}}
}

// engine is the process-wide runner every Fig*/Table* function shares, so a
// baseline simulated for one figure is reused by the next.
var engine = NewRunner(0)

// ResetMemo drops every memoized run from the shared engine. Benchmarks and
// cache tests use it to measure cold-memo behaviour (a fresh process);
// normal callers never need it. Counters are monotonic and unaffected.
func ResetMemo() {
	engine.mu.Lock()
	engine.memo = map[runKey]*memoEntry{}
	engine.mu.Unlock()
}

// EngineCounters snapshots the shared engine's work ledger.
func EngineCounters() Counters {
	return engine.Counters()
}

// Counters snapshots this runner's work ledger.
func (r *Runner) Counters() Counters {
	return Counters{
		Sims:          r.sims.Load(),
		MemoHits:      r.memoHits.Load(),
		DiskHits:      r.diskHits.Load(),
		RefsSimulated: r.refsSim.Load(),
		SimNanos:      r.simNanos.Load(),
		Batches:       r.batches.Load(),
	}
}

// acquire looks up the memo entry of key or, when there is none, installs
// spare, a zero entry, as it. The request that installs the entry owns it
// — it must fill res/err and finish it, through fill — and every later
// request waits on ready instead.
func (r *Runner) acquire(key runKey, spare *memoEntry) (e *memoEntry, owner bool, st ResultStore) {
	r.mu.Lock()
	e = r.memo[key]
	if e == nil {
		e = spare
		e.ready.Add(1)
		r.memo[key] = e
		owner = true
	}
	st = r.store
	r.mu.Unlock()
	return e, owner, st
}

// dropEntry removes a failed entry from the memo (if it is still the resident
// one) so a later request recomputes instead of inheriting the failure.
func (r *Runner) dropEntry(key runKey, e *memoEntry) {
	r.mu.Lock()
	if r.memo[key] == e {
		delete(r.memo, key)
	}
	r.mu.Unlock()
}

// canceledResult is the placeholder for a run aborted by cancellation: zero
// metrics, but one IPC slot per workload so downstream aggregation that
// indexes per-core fields stays in bounds. Speedup ratios computed from it
// are zero and are dropped by stats.FiniteRatios.
func canceledResult(j Job) sim.Result {
	return sim.Result{IPC: make([]float64, len(j.Workloads))}
}

// maxBatchConfigs bounds how many machine configurations one lockstep batch
// carries. Beyond this the machines' combined hot state stops fitting in
// cache and the batch degrades toward serial speed, so larger groups are
// split into consecutive batches.
const maxBatchConfigs = 16

// batchKey is the trace identity jobs must share to advance in lockstep over
// one trace walk: the workload mix, the base seed, and the ref count.
type batchKey struct {
	names string
	refs  int
	seed  int64
}

// plan partitions job indices into groups sharing one trace identity, in
// first-appearance order and chunked at maxBatchConfigs. Each group is one
// unit of worker-pool scheduling and runs as one lockstep batch; a lone job
// is a group of one.
func plan(keys []runKey) [][]int {
	groups := map[batchKey][]int{}
	var order []batchKey
	for i, k := range keys {
		bk := batchKey{names: k.names, refs: k.refs, seed: k.seed}
		if groups[bk] == nil {
			order = append(order, bk)
		}
		groups[bk] = append(groups[bk], i)
	}
	var tasks [][]int
	for _, bk := range order {
		idxs := groups[bk]
		for lo := 0; lo < len(idxs); lo += maxBatchConfigs {
			tasks = append(tasks, idxs[lo:min(lo+maxBatchConfigs, len(idxs))])
		}
	}
	return tasks
}

// RunAllCtx executes jobs across a pool of the given width (<= 0 means the
// Runner's default) and returns results in submission order: results[i] is
// jobs[i]'s outcome regardless of scheduling, so parallel and serial runs
// aggregate bit-identically. When ctx fires, in-flight simulations abort at
// their next cancellation check, every not-yet-run job is filled with
// canceledResult, and the first context error is returned. Results of jobs
// that completed before the cancellation are exact.
func (r *Runner) RunAllCtx(ctx context.Context, jobs []Job, workers int) ([]sim.Result, error) {
	if workers <= 0 {
		workers = r.workers
	}
	keys := make([]runKey, len(jobs))
	for i, j := range jobs {
		keys[i] = memoizable(j)
	}
	tasks := plan(keys)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	results := make([]sim.Result, len(jobs))
	var errs firstError
	if workers <= 1 {
		for _, t := range tasks {
			r.runGroup(ctx, jobs, keys, t, results, &errs)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					r.runGroup(ctx, jobs, keys, tasks[i], results, &errs)
				}
			}()
		}
		wg.Wait()
	}
	return results, errs.err
}

// firstError keeps the first error the workers of one call report.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) note(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// member is one job of a group together with its memo entry.
type member struct {
	idx int // into the call's jobs and keys
	e   *memoEntry
	// skey is the store key of a job the store missed, for its Put; empty
	// when no store is configured.
	skey string
}

// runGroup resolves one planned group. Every job's memo entry is acquired
// first; the entries this request installed are filled together (see fill),
// and only then are the entries other requests own awaited — this worker
// holds no open entries by then, so waiting is deadlock-free. An awaited
// entry whose owner was canceled, while this request's own context is live,
// goes round the loop again, and this request may then own it.
//
// A panicking simulation re-raises for the owner and every waiter alike
// (dspatchd's execute recovers it into a failed job); the entry is dropped,
// so a resubmission re-simulates instead of reading a poisoned memo.
func (r *Runner) runGroup(ctx context.Context, jobs []Job, keys []runKey, idxs []int, results []sim.Result, errs *firstError) {
	for len(idxs) > 0 {
		// Every member is usually owned: size that slice, and the entries
		// it may install, once per round.
		owned := make([]member, 0, len(idxs))
		spare := make([]memoEntry, len(idxs))
		var awaited []member
		var st ResultStore
		for k, i := range idxs {
			e, owner, s := r.acquire(keys[i], &spare[k])
			st = s
			if mb := (member{idx: i, e: e}); owner {
				owned = append(owned, mb)
			} else {
				awaited = append(awaited, mb)
			}
		}
		if len(owned) > 0 {
			if err := r.fill(ctx, st, jobs, keys, owned, results); err != nil {
				errs.note(err)
			}
		}
		var retry []int
		for _, mb := range awaited {
			mb.e.ready.Wait()
			if mb.e.err == nil {
				r.memoHits.Add(1)
				results[mb.idx] = mb.e.res
				continue
			}
			r.dropEntry(keys[mb.idx], mb.e)
			if mb.e.panicked != nil {
				panic(mb.e.panicked)
			}
			if err := ctx.Err(); err != nil {
				results[mb.idx] = canceledResult(jobs[mb.idx])
				errs.note(err)
				continue
			}
			retry = append(retry, mb.idx)
		}
		idxs = retry
	}
}

// fill computes the entries this request owns, all of one trace identity:
// the persistent store first, then one lockstep sim.RunBatchCtx walk of the
// shared trace for the rest. Every entry is closed on return. A canceled
// batch records the error into every simulated entry and drops them all —
// siblings are never poisoned with a partial result — and a panic is
// recorded into each before re-raising, so no waiter hangs on an open entry.
func (r *Runner) fill(ctx context.Context, st ResultStore, jobs []Job, keys []runKey, owned []member, results []sim.Result) error {
	cold := owned[:0]
	for _, mb := range owned {
		if st != nil {
			var kb [keyBufLen]byte
			key := keys[mb.idx].appendKey(kb[:0])
			if res, ok := storeGet(st, key); ok {
				r.diskHits.Add(1)
				mb.e.res, mb.e.in = res, st
				mb.e.finish()
				results[mb.idx] = res
				continue
			}
			mb.skey = string(key)
		}
		cold = append(cold, mb)
	}
	if len(cold) == 0 {
		return nil
	}
	ws := jobs[cold[0].idx].Workloads
	opts := make([]sim.Options, len(cold))
	for k, mb := range cold {
		opts[k] = jobs[mb.idx].Opt
	}
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			for _, mb := range cold {
				mb.e.panicked = p
				mb.e.err = fmt.Errorf("simulation panicked: %v", p)
				mb.e.finish()
				r.dropEntry(keys[mb.idx], mb.e)
			}
			panic(p)
		}
	}()
	batch, err := sim.RunBatchCtx(ctx, ws, opts)
	if err != nil {
		for _, mb := range cold {
			mb.e.err = err
			mb.e.finish()
			r.dropEntry(keys[mb.idx], mb.e)
			results[mb.idx] = canceledResult(jobs[mb.idx])
		}
		return err
	}
	// One batch is one trace walk: wall time lands once, work (sims, refs)
	// lands per member config.
	r.simNanos.Add(uint64(time.Since(start)))
	if len(cold) > 1 {
		r.batches.Add(1)
	}
	for k, mb := range cold {
		r.sims.Add(1)
		r.refsSim.Add(uint64(opts[k].Refs) * uint64(len(ws)))
		if r.cachePut(st, mb.skey, batch[k]) {
			mb.e.in = st
		}
		mb.e.res = batch[k]
		mb.e.finish()
		results[mb.idx] = batch[k]
	}
	return nil
}

// storeGet reads key's result from st. A DirStore hashes and verifies the
// key's bytes where they are; any other store gets them as a string.
func storeGet(st ResultStore, key []byte) (sim.Result, bool) {
	if ds, ok := st.(*DirStore); ok {
		return ds.get(key)
	}
	return st.Get(string(key))
}

// Stored reports whether the process-wide engine's memo holds id's result
// as read from or written to st, the same store instance: the result is
// already in st, and persisting it there again would only repeat the write.
// A run that is in flight, failed, or in another store reports false.
func Stored(id RunID, st ResultStore) bool {
	return engine.stored(id.k, st)
}

func (r *Runner) stored(key runKey, st ResultStore) bool {
	if st == nil {
		return false
	}
	r.mu.Lock()
	e := r.memo[key]
	r.mu.Unlock()
	if e == nil {
		return false
	}
	return e.final.Load() && e.err == nil && e.in == st
}

// RunJobs schedules jobs on the process-shared engine — the programmatic
// entry the dspatchd service layers on. Results share the same memo and
// persistent cache as the Fig*/Table* functions, so a job submitted over
// HTTP and the equivalent library call return identical results and the
// second of the two never re-simulates.
func RunJobs(ctx context.Context, jobs []Job, workers int) ([]sim.Result, error) {
	return engine.RunAllCtx(ctx, jobs, workers)
}

// runAll schedules jobs on the shared engine at this scale's parallelism.
func (s Scale) runAll(jobs []Job) []sim.Result {
	results, _ := engine.RunAllCtx(s.context(), jobs, s.Parallel)
	return results
}
