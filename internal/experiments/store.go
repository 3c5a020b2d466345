package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dspatch/internal/sim"
)

// ResultStore is a shared result store keyed by the canonical run key
// (RunID.String): any backend that can GET/PUT a simulation result under a
// string key can serve as the persistent cache behind the engine — and as
// the shared result store of a coordinator/worker fleet, where workers and
// the coordinator exchange completed runs through it. Implementations must
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

// RunID is a job's canonical identity as a comparable value, for
// deduplicating runs without rendering their string keys: two jobs with
// equal RunIDs are the same simulation.
type RunID struct{ k runKey }

// JobID returns j's RunID. Like a simulation, it panics on an L2
// prefetcher sim.KnownPF rejects.
func JobID(j Job) RunID { return RunID{memoizable(j)} }

// String is the canonical run key: the string the disk cache hashes into a
// content address. Two jobs with equal keys are the same simulation, so
// fleet coordinators shard and deduplicate dispatches by it.
func (id RunID) String() string { return id.k.keyString() }

// DirStore is the one ResultStore backend: a directory of content-addressed
// entry files (see encodeEntry) whose filenames are the SHA-256 of the run
// key. Writes are atomic renames, so several processes can share one
// directory: a fleet's shared -store-dir and a worker's -cache-dir can be
// the same directory (or rsync'd copies of each other).
type DirStore struct {
	dir string
}

// entryExt is the extension of a DirStore entry file. Entries of earlier
// builds were ".json" files; a store never reads them, so they miss.
const entryExt = ".run"

// EntryGlob matches a DirStore's entry files under its root.
const EntryGlob = "*" + entryExt

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

// PathOf returns the content address of key under the store root: the
// first 16 bytes of the key's SHA-256 in hex, plus entryExt.
func (s *DirStore) PathOf(key string) string {
	var kb [keyBufLen]byte
	var pb [pathBufLen]byte
	return string(s.appendPath(pb[:0], append(kb[:0], key...)))
}

// pathBufLen sizes the stack buffers entry paths are rendered into: the
// path of a store under a directory of up to about 200 bytes fits.
const pathBufLen = 256

// appendPath appends key's content address (see PathOf) to b.
func (s *DirStore) appendPath(b, key []byte) []byte {
	sum := sha256.Sum256(key)
	b = append(b, s.dir...)
	b = append(b, filepath.Separator)
	b = hex.AppendEncode(b, sum[:16])
	return append(b, entryExt...)
}

// entryBufs pools Get's read buffers: an entry is decoded in place and
// every Result field is copied out, so the buffer is free again once
// decodeEntry returns.
var entryBufs = sync.Pool{New: func() any {
	b := make([]byte, 4<<10)
	return &b
}}

// maxPooledBuf keeps a rare large entry's buffer out of the pool.
const maxPooledBuf = 64 << 10

// Get implements ResultStore: a valid, version-matched entry or a miss. A
// hit allocates only the Result's own slices. The key is hashed and checked
// from a stack copy, the entry's path is rendered on the stack, and the
// entry is read into a pooled buffer, through raw system calls on Linux
// (readEntry): one open, one read and one close for an entry that fits the
// buffer.
func (s *DirStore) Get(key string) (sim.Result, bool) {
	var kb [keyBufLen]byte
	return s.get(append(kb[:0], key...))
}

// get is Get for a key already rendered as bytes: the experiment engine
// passes its run keys straight from its stack (see storeGet).
func (s *DirStore) get(key []byte) (sim.Result, bool) {
	var pb [pathBufLen]byte
	bp := entryBufs.Get().(*[]byte)
	data, err := readEntry(s.appendPath(pb[:0], key), bp)
	var res sim.Result
	ok := err == nil
	if ok {
		res, ok = decodeEntry(data, key) // torn, corrupt or stale: a miss
	}
	if cap(*bp) <= maxPooledBuf {
		entryBufs.Put(bp)
	}
	return res, ok
}

// readAll reads a file whole into *bp through read, which returns 0 bytes
// (and nil or io.EOF) at the end of the file. A read that leaves the buffer
// short of full has reached the end of a regular file, so an entry that
// fits takes one read; a fuller buffer grows and reads on to the end,
// bounded by maxEntryLen. A short read that was not the end truncates the
// entry, which decodeEntry then rejects as a miss.
func readAll(read func([]byte) (int, error), bp *[]byte) ([]byte, error) {
	buf := *bp
	n := 0
	for {
		m, err := read(buf[n:])
		if err != nil && err != io.EOF {
			return nil, err
		}
		n += m
		if err == io.EOF || m == 0 || n < len(buf) {
			return buf[:n], nil
		}
		if len(buf) > maxEntryLen {
			return nil, fmt.Errorf("experiments: entry exceeds %d bytes", maxEntryLen)
		}
		buf = append(buf, make([]byte, len(buf))...)
		*bp = buf
	}
}

// Put implements ResultStore with an atomic temp-file + rename write, so
// concurrent writers racing on one entry never leave a torn file visible.
func (s *DirStore) Put(key string, res sim.Result) error {
	return s.PutRaw(key, encodeEntry(key, res))
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
