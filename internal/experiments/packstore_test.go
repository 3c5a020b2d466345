package experiments

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dspatch/internal/sim"
)

func packResult(cycles uint64) sim.Result {
	return sim.Result{Cycles: cycles, IPC: []float64{1.5}, Coverage: 0.25}
}

func TestPackStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.pack")
	s, err := OpenPackStore(path)
	if err != nil {
		t.Fatalf("OpenPackStore: %v", err)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("empty store produced a hit")
	}
	want := packResult(1234)
	if err := s.Put("k1", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, ok := s.Get("k1"); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get after Put: %+v ok=%v", got, ok)
	}
	// A re-Put supersedes.
	want2 := packResult(5678)
	if err := s.Put("k1", want2); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if got, _ := s.Get("k1"); got.Cycles != 5678 {
		t.Fatalf("superseding Put not served: %+v", got)
	}
	if err := s.Put("k2", packResult(9)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	s.Close()

	// Reopen: entries survive, the superseded k1 frame is compacted away.
	before, _ := os.Stat(path)
	s2, err := OpenPackStore(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the pack: %d -> %d bytes", before.Size(), after.Size())
	}
	if got, ok := s2.Get("k1"); !ok || got.Cycles != 5678 {
		t.Fatalf("k1 after reopen: %+v ok=%v", got, ok)
	}
	if got, ok := s2.Get("k2"); !ok || got.Cycles != 9 {
		t.Fatalf("k2 after reopen: %+v ok=%v", got, ok)
	}
	// Appends still work after compaction's reopen dance.
	if err := s2.Put("k3", packResult(11)); err != nil {
		t.Fatalf("Put after compaction: %v", err)
	}
	if got, ok := s2.Get("k3"); !ok || got.Cycles != 11 {
		t.Fatalf("k3: %+v ok=%v", got, ok)
	}
}

// TestPackStoreTornTail truncates the pack at every byte offset inside its
// last frame: the store must open cleanly, keep every intact entry, treat
// the torn one as a miss, and accept fresh Puts.
func TestPackStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.pack")
	s, err := OpenPackStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", packResult(1)); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("torn", packResult(2)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for cut := len(whole); cut < len(full); cut++ {
		p := filepath.Join(dir, "torn.pack")
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ts, err := OpenPackStore(p)
		if err != nil {
			t.Fatalf("cut at %d: open: %v", cut, err)
		}
		if _, ok := ts.Get("keep"); !ok {
			t.Fatalf("cut at %d: intact entry lost", cut)
		}
		if _, ok := ts.Get("torn"); ok {
			t.Fatalf("cut at %d: torn entry served", cut)
		}
		if err := ts.Put("torn", packResult(3)); err != nil {
			t.Fatalf("cut at %d: put after truncation: %v", cut, err)
		}
		ts.Close()
		ts2, err := OpenPackStore(p)
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if got, ok := ts2.Get("torn"); !ok || got.Cycles != 3 {
			t.Fatalf("cut at %d: re-put entry lost: %+v ok=%v", cut, got, ok)
		}
		ts2.Close()
	}
}

// TestPackStoreVersionMismatch plants an entry stamped with a stale
// ResultVersion: the CRC is valid so the scan indexes it, but Get must
// treat it as a miss (the DirStore contract).
func TestPackStoreVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.pack")
	payload := stampEntry(encodeEntry("old", packResult(4)), sim.ResultVersion-1)
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if err := os.WriteFile(path, append([]byte(packMagic), frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenPackStore(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	if _, ok := s.Get("old"); ok {
		t.Error("stale-version entry served")
	}
}

func TestPackStoreRejectsNonPack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bogus.pack")
	if err := os.WriteFile(path, []byte("definitely not a pack file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPackStore(path); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestPackStoreBackendBehindRunner proves PackStore satisfies the same
// ResultStore role DirStore plays for the runner's persistent cache: a
// second runner wired to the same pack serves the stored result without
// simulating.
func TestPackStoreBackendBehindRunner(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.pack")
	s, err := OpenPackStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	job := cacheTestJob(t)

	r1 := NewRunner(1)
	r1.SetResultStore(s)
	fresh := r1.RunAll([]Job{job}, 1)[0]

	r2 := NewRunner(1)
	r2.SetResultStore(s)
	c0 := r2.Counters()
	if got := r2.RunAll([]Job{job}, 1)[0]; !reflect.DeepEqual(got, fresh) {
		t.Fatalf("pack-cached result differs: %+v vs %+v", got, fresh)
	}
	c1 := r2.Counters()
	if c1.Sims != c0.Sims {
		t.Errorf("second runner simulated %d times; want pack hit", c1.Sims-c0.Sims)
	}
	if c1.DiskHits-c0.DiskHits != 1 {
		t.Errorf("DiskHits delta = %d, want 1", c1.DiskHits-c0.DiskHits)
	}
}
