package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dspatch/internal/sim"
)

// ResultStore is a shared result store keyed by the canonical run key
// (JobKey): any backend that can GET/PUT a simulation result under a string
// key can serve as the persistent cache behind the engine — and as the
// shared result store of a coordinator/worker fleet, where workers and the
// coordinator exchange completed runs through it. Implementations must
// treat a corrupt or torn entry as a miss, never an error: the store is an
// accelerator, and a fleet must survive a half-written entry by
// re-simulating.
type ResultStore interface {
	// Get returns the stored result for key, reporting false on any miss —
	// absent, torn, corrupt, or stamped by a different sim.ResultVersion.
	Get(key string) (sim.Result, bool)
	// Put persists res under key. A failed Put leaves the store unchanged
	// or holding a torn entry that Get rejects; it must never corrupt other
	// keys.
	Put(key string, res sim.Result) error
}

// JobKey returns the canonical cache key of a job — the string the disk
// cache hashes into a content address. Two jobs with equal keys are the same
// simulation: fleet coordinators shard and deduplicate dispatches by this
// key.
func JobKey(j Job) string { return JobID(j).String() }

// RunID is a job's canonical identity as a comparable value, for
// deduplicating runs without rendering their string keys: two jobs with
// equal RunIDs are the same simulation.
type RunID struct{ k runKey }

// JobID returns j's RunID.
func JobID(j Job) RunID { return RunID{memoizable(j)} }

// String is the canonical run key JobKey returns.
func (id RunID) String() string { return id.k.keyString() }

// DirStore is the ResultStore the engine has always used, made pluggable: a
// directory of content-addressed JSON entries whose filenames are the
// SHA-256 of the run key. It is byte-compatible with -cache-dir, so a
// fleet's shared -store-dir and a worker's local cache dir can be the same
// directory (or rsync'd copies of each other).
type DirStore struct {
	dir string
}

// NewDirStore opens (creating if needed) a directory-backed store at dir.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiments: store dir must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: store dir: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DirStore) Dir() string { return s.dir }

// PathOf returns the content address of key under the store root.
func (s *DirStore) PathOf(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:16])+".json")
}

// Get implements ResultStore: a valid, version-matched entry or a miss.
func (s *DirStore) Get(key string) (sim.Result, bool) {
	data, err := os.ReadFile(s.PathOf(key))
	if err != nil {
		return sim.Result{}, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		return sim.Result{}, false // torn or corrupt: simulate and rewrite
	}
	if e.Version != sim.ResultVersion {
		return sim.Result{}, false // stale behaviour stamp: recompute
	}
	return e.Result, true
}

// Put implements ResultStore with an atomic temp-file + rename write, so
// concurrent writers racing on one entry never leave a torn file visible.
func (s *DirStore) Put(key string, res sim.Result) error {
	data, err := json.Marshal(cacheEntry{Version: sim.ResultVersion, Key: key, Result: res})
	if err != nil {
		return err
	}
	return s.PutRaw(key, data)
}

// PutRaw writes data verbatim as key's entry (atomically). It exists so
// fault-injection harnesses can plant torn or corrupt entries through the
// same write path the store uses; Get must reject whatever they plant.
func (s *DirStore) PutRaw(key string, data []byte) error {
	tmp, err := os.CreateTemp(s.dir, "run-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), s.PathOf(key)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
