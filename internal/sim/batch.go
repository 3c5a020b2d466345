package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"dspatch/internal/trace"
)

// RunBatch simulates every configuration in opts over the same workload mix
// in one pass: N independent machines (caches, memory systems, prefetchers)
// advance in lockstep chunks over a single replay of the shared trace. The
// trace columns are walked once instead of once per configuration, and
// because the machines never interact, each chunk advances them on parallel
// goroutines — an M-config batch finishes in roughly the wall time of the
// slowest single configuration when cores are free. Results are bit-identical
// to calling Run once per configuration — each machine's own computation
// stays strictly sequential; batching only changes scheduling.
//
// Every option in opts must agree on (Refs, Seed): one trace identity per
// batch. Everything else — prefetcher, LLC size, DRAM geometry, pollution
// tracking — may differ freely between configurations.
func RunBatch(ws []trace.Workload, opts []Options) []Result {
	res, _ := RunBatchCtx(context.Background(), ws, opts)
	return res
}

// RunBatchCtx is RunBatch with a cancellation hook, polled on the same
// cadence as RunCtx. A canceled batch returns one placeholder Result per
// configuration (zero metrics, one IPC slot per workload) and ctx.Err(),
// mirroring RunCtx's cancellation contract for every member.
func RunBatchCtx(ctx context.Context, ws []trace.Workload, opts []Options) ([]Result, error) {
	if len(opts) == 0 {
		return nil, nil
	}
	if len(ws) == 0 {
		panic("sim: no workloads")
	}
	machines, err := runBatchMachines(ctx, ws, opts)
	out := make([]Result, len(opts))
	for i := range out {
		if err != nil {
			out[i] = Result{IPC: make([]float64, len(ws))}
		} else {
			out[i] = machines[i].finish()
		}
	}
	return out, err
}

// runBatchMachines builds the machines RunBatchCtx simulates and advances
// them to completion, leaving each Result to the caller's finish so
// in-package tests can inspect the live memory systems afterwards.
func runBatchMachines(ctx context.Context, ws []trace.Workload, opts []Options) ([]*machine, error) {
	n := len(ws)
	for _, o := range opts[1:] {
		if o.Refs != opts[0].Refs || o.Seed != opts[0].Seed {
			panic("sim: RunBatch requires one trace identity (Refs, Seed) per batch")
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// A single-lane batch replays one literal cursor: each ref is fetched
	// once and fed to every machine. Multi-lane machines interleave their
	// lanes by per-machine core timing, so each machine keeps its own cursors
	// over the shared columns and the batch steps the machines round-robin —
	// still one outer pass, still cache-resident together. Either way every
	// lane replays the same materialized stream a fresh generator would emit;
	// the golden corpus (testdata/golden_results.json) pins the results.
	shared := n == 1

	machines := make([]*machine, len(opts))
	for i, o := range opts {
		machines[i] = newMachine(ws, o, !shared)
	}

	done := ctx.Done()
	canceled := func() bool {
		if done == nil {
			return false
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	// forEachMachine advances every live machine by one chunk. The machines
	// share nothing mutable (replay cursors are read-only), so chunks advance
	// on up to GOMAXPROCS goroutines with the chunk barrier as the only
	// synchronization. On a single-CPU host no goroutines spawn at all:
	// async preemption would otherwise timeslice the workers mid-chunk and
	// reintroduce exactly the cache interleaving chunking exists to avoid. A
	// panic inside a worker — a mis-sized config, a cursor overrun — is
	// re-raised in the caller's goroutine so recover-based isolation upstream
	// keeps working exactly as it does for serial runs.
	workers := min(runtime.GOMAXPROCS(0), len(machines))
	panics := make([]any, workers)
	forEachMachine := func(step func(m *machine)) {
		if workers == 1 {
			for _, m := range machines {
				if !m.halted {
					step(m)
				}
			}
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				defer func() { panics[w] = recover() }()
				for {
					mi := int(next.Add(1)) - 1
					if mi >= len(machines) {
						return
					}
					if m := machines[mi]; !m.halted {
						step(m)
					}
				}
			}(w)
		}
		wg.Wait()
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}

	if shared {
		// Chunked lockstep: the cursor fills a buffer of refChunk refs (one
		// decode per ref, total), then every machine consumes the whole chunk
		// in parallel. Per-ref round-robin would interleave every machine's
		// cache/prefetcher tables on every reference and thrash the host
		// cache; chunking keeps each machine's state hot across its slice
		// while the buffer itself stays cache-resident. One cursor per machine
		// instead made 4-config batches 9–20% slower (2-core VM, 3 runs).
		refs := opts[0].Refs
		cur := trace.Replay(ws[0], LaneSeed(opts[0].Seed, 0), refs)
		buf := make([]trace.Ref, min(refChunk, refs))
		var aborted atomic.Bool
		for base := 0; base < refs; base += refChunk {
			if canceled() {
				return nil, ctx.Err()
			}
			chunk := buf[:min(refChunk, refs-base)]
			for i := range chunk {
				cur.Next(&chunk[i])
			}
			forEachMachine(func(m *machine) {
				l := m.lanes[0]
				for i := range chunk {
					// Same polling cadence as RunCtx: a chunk of a large
					// batch is whole tenths of a second of work, too long to
					// ignore cancellation for.
					if i&cancelCheckMask == cancelCheckMask && canceled() {
						aborted.Store(true)
						return
					}
					m.apply(l, &chunk[i])
				}
			})
			if aborted.Load() {
				return nil, ctx.Err()
			}
		}
	} else {
		// Per-machine cursors advance in refChunk-sized timeslices. halted is
		// written inside the worker and read after the chunk barrier, which
		// orders the accesses.
		var aborted atomic.Bool
		live := len(machines)
		for live > 0 {
			if canceled() {
				return nil, ctx.Err()
			}
			forEachMachine(func(m *machine) {
				var ref trace.Ref
				for s := 0; s < refChunk; s++ {
					if s&cancelCheckMask == cancelCheckMask && canceled() {
						aborted.Store(true)
						return
					}
					if !m.step(&ref) {
						m.halted = true
						break
					}
				}
			})
			if aborted.Load() {
				return nil, ctx.Err()
			}
			live = 0
			for _, m := range machines {
				if !m.halted {
					live++
				}
			}
		}
	}

	return machines, nil
}

// refChunk is the lockstep granularity: how many refs one machine advances
// before the batch moves to the next. Large slices amortize the reload of a
// machine's simulated state across many references (a DefaultST machine
// allocates 0.62–0.69 MB for the headline prefetchers, 0.47 MB of it the
// three tag stores) — fine-grained interleaving measurably thrashes the host
// cache — while the ref buffer itself is read strictly sequentially, so its
// size barely matters. Cancellation stays responsive regardless: workers
// poll inside the slice on RunCtx's cadence.
const refChunk = 65536
