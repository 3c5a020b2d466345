package experiments

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"dspatch/internal/prefstats"
	"dspatch/internal/sim"
)

// statsResult returns a collect-stats Result whose telemetry holds n
// counters, so its entry grows with n: about 19 bytes a counter.
func statsResult(n int) sim.Result {
	st := prefstats.New("dspatch")
	for i := range n {
		st.Count("counter-"+strconv.Itoa(i), uint64(i+1))
	}
	return sim.Result{IPC: []float64{1.25}, Cycles: 7, Prefetchers: []sim.PrefetcherStats{st}}
}

// TestDirStoreReadsEntriesPastThePooledBuffer round-trips entries around
// and beyond the 4 KiB read buffer a Get starts with: one byte short of it,
// exactly it (the read fills the buffer, so it grows and reads to the end),
// one past it, exactly twice it, and a telemetry blob whose buffer is too
// large to go back to the pool.
func TestDirStoreReadsEntriesPastThePooledBuffer(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res := statsResult(60)
	base := len(encodeEntry("", res))
	if base >= 4<<10-1 {
		t.Fatalf("base entry is %d bytes; the sizes below need it under 4 KiB", base)
	}
	// An entry is base bytes plus its key: a key of size-base bytes makes
	// an entry of exactly size bytes.
	for _, size := range []int{4<<10 - 1, 4 << 10, 4<<10 + 1, 8 << 10, 8<<10 + 1} {
		key := strings.Repeat("k", size-base)
		if err := ds.Put(key, res); err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(ds.PathOf(key)); err != nil || fi.Size() != int64(size) {
			t.Fatalf("entry of %d bytes: stat %v, %v", size, fi, err)
		}
		if got, ok := ds.Get(key); !ok || !sameBits(got, res) {
			t.Errorf("entry of %d bytes did not round-trip (ok=%t)", size, ok)
		}
	}
	big := statsResult(4000)
	if n := len(encodeEntry("big", big)); n < 64<<10 {
		t.Fatalf("big entry is only %d bytes", n)
	}
	if err := ds.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if got, ok := ds.Get("big"); !ok || !sameBits(got, big) {
		t.Errorf("telemetry blob of 4000 counters did not round-trip (ok=%t)", ok)
	}
	if _, ok := ds.Get(strings.Repeat("k", 4<<10-base)); !ok {
		t.Error("entry read after the big one missed")
	}
}

// TestDirStoreMissesUnreadableEntries: what sits at an entry's path but is
// not an intact entry is a miss, never an error or a panic — an empty
// file, a file cut short anywhere (at the pooled buffer's size too), and
// a directory.
func TestDirStoreMissesUnreadableEntries(t *testing.T) {
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "k"
	whole := encodeEntry(key, statsResult(600))
	if len(whole) <= 8<<10 {
		t.Fatalf("entry is %d bytes; the cuts below need it past 8 KiB", len(whole))
	}
	path := ds.PathOf(key)
	plant := map[string]func() error{
		"empty file": func() error { return os.WriteFile(path, nil, 0o644) },
		"directory":  func() error { return os.Mkdir(path, 0o755) },
	}
	for _, cut := range []int{1, 4<<10 - 1, 4 << 10, 4<<10 + 1, 8 << 10, len(whole) - 1} {
		plant["cut to "+strconv.Itoa(cut)] = func() error { return os.WriteFile(path, whole[:cut], 0o644) }
	}
	for name, fn := range plant {
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		if err := fn(); err != nil {
			t.Fatal(err)
		}
		if _, ok := ds.Get(key); ok {
			t.Errorf("%s: served as a hit", name)
		}
	}
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(key); !ok {
		t.Error("intact entry missed after the unreadable ones")
	}
}
