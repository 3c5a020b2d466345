package experiments

import (
	"fmt"
	"log"
	"strconv"

	"dspatch/internal/dram"
	"dspatch/internal/sim"
)

// The persistent run cache extends the in-process memo across processes:
// every simulation result is written to a ResultStore — a DirStore of
// content-addressed files, under dspatchsim's -cache-dir or dspatchd's one
// store directory — and later invocations (a second CLI run of the same
// figure, a CI job, a notebook, another fleet worker) load it instead of
// re-simulating. A daemon hands the same store instance to its campaigns,
// which skip writing a run the engine already wrote there (see Stored).
//
// Correctness rules:
//
//   - The address is a SHA-256 over every runKey field, so any change to the
//     requested configuration is a different file. Each entry also stores
//     its key, and a read checks it.
//   - Each entry embeds sim.ResultVersion; entries stamped by an older (or
//     newer) simulator behaviour are ignored and overwritten. Bump
//     sim.ResultVersion on any behavioral change.
//   - Entries are the binary encoding of entry.go, checksummed: a corrupt or
//     torn entry is treated as a miss, and the run simulates and rewrites
//     it. The cache can be deleted at any time.
//   - Every float is stored bit for bit, NaN and ±Inf included, so no
//     Result can fail to encode.
//   - Writes are atomic (temp file + rename), so concurrent processes racing
//     on one entry at worst both simulate; neither observes a torn file.
//   - A failing backend (disk full, permissions, read-only mount) degrades
//     gracefully: the first write error is logged, further writes are
//     disabled for the process, and simulation continues with the read path
//     untouched. The cache is an accelerator, never a correctness
//     dependency.

// keyString renders every runKey field in a stable, self-describing form.
// It is the ResultStore key; DirStore hashes it into the content address.
// trackPollution renders only when set, and a DRAM configuration only as its
// name when it is the stock DDR4 machine of that name, so keys of the runs
// every figure and campaign make are the strings earlier builds wrote and
// their stored entries still hit.
func (k *runKey) keyString() string {
	var buf [keyBufLen]byte
	return string(k.appendKey(buf[:0]))
}

// keyBufLen sizes the stack buffers run keys are rendered into: a key of
// a few lanes fits.
const keyBufLen = 256

// appendKey appends k's keyString rendering to b.
func (k *runKey) appendKey(b []byte) []byte {
	b = append(b, "names="...)
	b = strconv.AppendQuote(b, k.names)
	b = append(b, " dram="...)
	b = k.dram.AppendName(b)
	if k.dram != dram.DDR4(k.dram.Channels, k.dram.MTps) {
		type fields dram.Config // every field by name, not Config.String's name
		b = fmt.Appendf(b, "%+v", fields(k.dram))
	}
	b = append(b, " llc="...)
	b = strconv.AppendInt(b, int64(k.llcBytes), 10)
	b = append(b, " refs="...)
	b = strconv.AppendInt(b, int64(k.refs), 10)
	b = append(b, " seed="...)
	b = strconv.AppendInt(b, k.seed, 10)
	b = append(b, " l2="...)
	b = append(b, sim.AllPFs[k.l2]...)
	b = append(b, " nol1="...)
	b = strconv.AppendBool(b, k.noL1Stride)
	b = append(b, " smspht="...)
	b = strconv.AppendInt(b, int64(k.smsPHT), 10)
	b = append(b, " stats="...)
	b = strconv.AppendBool(b, k.collectStats)
	if k.trackPollution {
		b = append(b, " pollution=true"...)
	}
	return b
}

// logWarnf receives the engine's rare operational warnings (one line when
// cache writes are disabled). Tests swap it to observe the log.
var logWarnf func(format string, args ...any) = log.Printf

// cachePut persists res and reports whether it is now in st, degrading
// gracefully on a failing backend: the first write error (ENOSPC, EACCES, a
// vanished directory) is logged once, further writes are disabled for this
// Runner, and simulation continues — the read path is unaffected.
func (r *Runner) cachePut(st ResultStore, key string, res sim.Result) bool {
	if st == nil || r.cacheWriteOff.Load() {
		return false
	}
	if err := st.Put(key, res); err != nil {
		if r.cacheWriteOff.CompareAndSwap(false, true) {
			logWarnf("experiments: run-cache write failed (%v); disabling further cache writes, simulation continues", err)
		}
		return false
	}
	return true
}

// SetCacheDir enables the persistent run cache for the process-wide engine,
// creating dir if needed. An empty dir disables it (the default: tests and
// library callers opt in explicitly).
func SetCacheDir(dir string) error {
	return engine.SetCacheDir(dir)
}

// SetResultStore points the process-wide engine's persistent cache at st
// (nil disables it). dspatchd installs its one store here, so its campaigns
// and the engine share one instance; tests plug in counting wrappers.
func SetResultStore(s ResultStore) {
	engine.SetResultStore(s)
}

// EngineStore returns the process-wide engine's persistent store (nil when
// the run cache is off).
func EngineStore() ResultStore {
	engine.mu.Lock()
	defer engine.mu.Unlock()
	return engine.store
}

// CacheDir reports the process-wide engine's persistent cache directory
// (empty when the disk cache is disabled or backed by a non-directory
// store).
func CacheDir() string {
	if ds, ok := EngineStore().(*DirStore); ok {
		return ds.Dir()
	}
	return ""
}

// SetCacheDir enables the persistent run cache on this runner.
func (r *Runner) SetCacheDir(dir string) error {
	if dir == "" {
		r.SetResultStore(nil)
		return nil
	}
	st, err := NewDirStore(dir)
	if err != nil {
		return err
	}
	r.SetResultStore(st)
	return nil
}

// SetResultStore replaces this runner's persistent store (nil disables it)
// and re-arms cache writes: a backend disabled by write failures stays
// disabled only until a new store is configured.
func (r *Runner) SetResultStore(s ResultStore) {
	r.mu.Lock()
	r.store = s
	r.mu.Unlock()
	r.cacheWriteOff.Store(false)
}
