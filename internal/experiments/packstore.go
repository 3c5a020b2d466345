package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"dspatch/internal/sim"
)

// PackStore is the second ResultStore backend: a single append-only pack
// file instead of DirStore's one-file-per-entry directory. It trades
// DirStore's rsync-friendliness for a store that is one file, one open
// descriptor, and no per-entry filesystem metadata — the shape that suits a
// coordinator's -store-dir on filesystems where a million small files hurt.
//
// Layout: an 8-byte magic header ("DSPPACK1"), then frames of
//
//	u32 LE payload length | u32 LE CRC32-IEEE(payload) | payload
//
// where the payload is the same entry (encodeEntry) a DirStore file holds. An
// in-memory index maps key -> latest frame; re-Puts append a superseding
// frame. Open scans the file, indexing each frame by the key in its entry
// header, truncates a torn tail (the ResultStore contract: a half-written
// entry is a miss, never an error), and compacts superseded frames away by
// rewriting live entries to a temp file and renaming over the original. A
// pack written by an earlier build holds JSON payloads, which the scan does
// not recognise: it truncates them like a torn tail, so they re-simulate
// once.
//
// PackStore is safe for concurrent use within one process. Unlike DirStore
// it must NOT be shared between processes: appends from two writers would
// interleave. The daemon opens it once and owns it.
type PackStore struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	index map[string]packLoc
	size  int64 // current end offset, == next append position
}

type packLoc struct {
	off int64 // offset of the frame's payload (past the 8-byte frame header)
	n   int64 // payload length
}

const packMagic = "DSPPACK1"

// OpenPackStore opens (creating if needed) the pack store at path, scanning
// existing frames, truncating any torn tail, and compacting superseded
// entries.
func OpenPackStore(path string) (*PackStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: pack store: %w", err)
	}
	s := &PackStore{f: f, path: path, index: map[string]packLoc{}}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// Path returns the pack file's path.
func (s *PackStore) Path() string { return s.path }

// Len reports how many distinct keys the store currently indexes.
func (s *PackStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// load scans the file into the index. A fresh (empty) file gets the magic
// header; a torn tail is truncated; superseded frames trigger compaction.
func (s *PackStore) load() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("experiments: pack store: %w", err)
	}
	if fi.Size() == 0 {
		if _, err := s.f.Write([]byte(packMagic)); err != nil {
			return fmt.Errorf("experiments: pack store header: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("experiments: pack store header: %w", err)
		}
		s.size = int64(len(packMagic))
		return nil
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("experiments: pack store: %w", err)
	}
	magic := make([]byte, len(packMagic))
	if _, err := io.ReadFull(s.f, magic); err != nil || !bytes.Equal(magic, []byte(packMagic)) {
		return fmt.Errorf("experiments: %s is not a pack store (bad magic)", s.path)
	}
	end := int64(len(packMagic))
	frames := 0
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(s.f, hdr[:]); err != nil {
			break // clean EOF or torn length word
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxEntryLen {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(s.f, payload); err != nil {
			break // frame cut short: the torn tail of a crashed Put
		}
		if crc32.ChecksumIEEE(payload) != want {
			break
		}
		key, ok := entryKey(payload)
		if !ok || key == "" {
			break
		}
		s.index[key] = packLoc{off: end + 8, n: int64(n)}
		end += int64(8 + n)
		frames++
	}
	if err := s.f.Truncate(end); err != nil {
		return fmt.Errorf("experiments: pack store truncate torn tail: %w", err)
	}
	s.size = end
	if frames > len(s.index) {
		if err := s.compact(); err != nil {
			return err
		}
	}
	if _, err := s.f.Seek(s.size, io.SeekStart); err != nil {
		return fmt.Errorf("experiments: pack store: %w", err)
	}
	return nil
}

// compact rewrites only live (latest-per-key) frames to a temp file and
// renames it over the pack, reclaiming superseded frames. Called with the
// scan already indexed; s.mu is not yet contended (open path).
func (s *PackStore) compact() error {
	tmp, err := os.CreateTemp(filepath.Dir(s.path), "pack-*.tmp")
	if err != nil {
		return fmt.Errorf("experiments: pack compact: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write([]byte(packMagic)); err != nil {
		tmp.Close()
		return fmt.Errorf("experiments: pack compact: %w", err)
	}
	newIndex := make(map[string]packLoc, len(s.index))
	off := int64(len(packMagic))
	for key, loc := range s.index {
		payload := make([]byte, loc.n)
		if _, err := s.f.ReadAt(payload, loc.off); err != nil {
			tmp.Close()
			return fmt.Errorf("experiments: pack compact read: %w", err)
		}
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := tmp.Write(hdr[:]); err == nil {
			_, err = tmp.Write(payload)
		}
		if err != nil {
			tmp.Close()
			return fmt.Errorf("experiments: pack compact write: %w", err)
		}
		newIndex[key] = packLoc{off: off + 8, n: loc.n}
		off += 8 + loc.n
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("experiments: pack compact sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("experiments: pack compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("experiments: pack compact rename: %w", err)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("experiments: pack compact reopen: %w", err)
	}
	s.f.Close()
	s.f = f
	s.index = newIndex
	s.size = off
	return nil
}

// Get implements ResultStore: a valid, version-matched entry or a miss.
func (s *PackStore) Get(key string) (sim.Result, bool) {
	s.mu.Lock()
	loc, ok := s.index[key]
	f := s.f
	s.mu.Unlock()
	if !ok {
		return sim.Result{}, false
	}
	bp := entryBufs.Get().(*[]byte)
	if int64(cap(*bp)) < loc.n {
		*bp = make([]byte, loc.n)
	}
	payload := (*bp)[:loc.n]
	var res sim.Result
	_, err := f.ReadAt(payload, loc.off)
	ok = err == nil
	if ok {
		res, ok = decodeEntry(payload, key)
	}
	if cap(*bp) <= maxPooledBuf {
		entryBufs.Put(bp)
	}
	return res, ok
}

// Put implements ResultStore by appending a frame and fsyncing. On a write
// error the file is truncated back to the last good frame, so a failed Put
// leaves the store unchanged.
func (s *PackStore) Put(key string, res sim.Result) error {
	payload := encodeEntry(key, res)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.f.WriteAt(frame, s.size); err != nil {
		s.f.Truncate(s.size)
		return fmt.Errorf("experiments: pack store put: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		s.f.Truncate(s.size)
		return fmt.Errorf("experiments: pack store put: %w", err)
	}
	s.index[key] = packLoc{off: s.size + 8, n: int64(len(payload))}
	s.size += int64(len(frame))
	return nil
}

// Close closes the pack file.
func (s *PackStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
