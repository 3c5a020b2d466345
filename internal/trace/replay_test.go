package trace

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// TestReplayBitIdentityFullRoster is the tentpole's trace-layer acceptance
// test: for every workload in the roster, the materialized replay cursor
// reproduces the generator's stream ref-for-ref — line, PC, write, gap and
// dep — at two different seeds.
func TestReplayBitIdentityFullRoster(t *testing.T) {
	defer ResetShared()
	const refs = 2_500
	for _, w := range Workloads() {
		for _, seed := range []int64{1, 104730} {
			gen := w.Build(seed)
			rep := Replay(w, seed, refs)
			var want, got Ref
			for i := 0; i < refs; i++ {
				gen.Next(&want)
				rep.Next(&got)
				if got != want {
					t.Fatalf("%s seed %d ref %d: replay %+v != generator %+v", w.Name, seed, i, got, want)
				}
			}
		}
	}
}

// TestReplayExtension proves that a cursor over a short prefix stays valid
// and bit-identical while the shared recording is extended for a longer run,
// and that the extension itself continues the generator exactly.
func TestReplayExtension(t *testing.T) {
	defer ResetShared()
	w, ok := ByName("tpcc")
	if !ok {
		t.Fatal("roster is missing tpcc")
	}
	short := Replay(w, 7, 500)
	long := Replay(w, 7, 3_000) // extends the same Materialized
	gen := w.Build(7)
	var want, a, b Ref
	for i := 0; i < 3_000; i++ {
		gen.Next(&want)
		long.Next(&b)
		if b != want {
			t.Fatalf("extended replay diverges at ref %d", i)
		}
		if i < 500 {
			short.Next(&a)
			if a != want {
				t.Fatalf("short cursor diverges at ref %d after extension", i)
			}
		}
	}
}

// TestMaterializePresized: materializing 100k refs allocates little beyond
// the columns themselves, which ensure presizes instead of growing them by
// append.
func TestMaterializePresized(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates a temporary per slices.Grow")
	}
	const n = 100_000
	w, ok := ByName("mcf")
	if !ok {
		t.Fatal("roster is missing mcf")
	}
	m := &Materialized{name: w.Name, seed: 1, gen: w.Build(1)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.ensure(n)
	runtime.ReadMemStats(&after)
	columns := n*(8+4+2) + 2*(n/64)*8 // lines, pcIdx, gaps, write and dep words
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(columns)*3/2 {
		t.Fatalf("materializing %d refs allocated %d bytes; columns hold %d (limit 1.5x)", n, alloc, columns)
	}
}

// TestReplayConcurrent hammers one shared stream from many goroutines with
// interleaved extensions; the race detector proves the append-only column
// sharing safe, and each cursor must still replay exactly.
func TestReplayConcurrent(t *testing.T) {
	defer ResetShared()
	w, ok := ByName("mcf")
	if !ok {
		t.Fatal("roster is missing mcf")
	}
	var refWant []Ref
	gen := w.Build(3)
	refWant = make([]Ref, 4_000)
	for i := range refWant {
		gen.Next(&refWant[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		n := 500 * (g + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := Replay(w, 3, n)
			var r Ref
			for i := 0; i < n; i++ {
				c.Next(&r)
				if r != refWant[i] {
					t.Errorf("concurrent cursor (n=%d) diverges at ref %d", n, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestExportImportRoundTrip proves a trace file round-trips bit-identically:
// record, export, import, replay, compare against the generator.
func TestExportImportRoundTrip(t *testing.T) {
	defer ResetShared()
	w, ok := ByName("specjbb")
	if !ok {
		t.Fatal("roster is missing specjbb")
	}
	const refs = 2_000
	m := Shared(w, 11)
	m.ensure(refs)
	var buf bytes.Buffer
	if err := m.Export(&buf, 0); err != nil {
		t.Fatalf("export: %v", err)
	}
	im, err := Import(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if im.Name() != w.Name || im.Seed() != 11 || im.Len() != refs {
		t.Fatalf("imported header = (%q, %d, %d), want (%q, 11, %d)", im.Name(), im.Seed(), im.Len(), w.Name, refs)
	}
	gen := w.Build(11)
	cur := im.Cursor(refs)
	var want, got Ref
	for i := 0; i < refs; i++ {
		gen.Next(&want)
		cur.Next(&got)
		if got != want {
			t.Fatalf("imported replay diverges at ref %d: %+v != %+v", i, got, want)
		}
	}
}

// TestImportRejectsCorruption covers the failure paths: truncation, flipped
// bytes (CRC), a wrong magic, and an over-long PC index must all return
// errors instead of a partial trace.
func TestImportRejectsCorruption(t *testing.T) {
	defer ResetShared()
	w, _ := ByName("linpack")
	m := Shared(w, 5)
	m.ensure(300)
	var buf bytes.Buffer
	if err := m.Export(&buf, 0); err != nil {
		t.Fatalf("export: %v", err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"short":     good[:6],
		"truncated": good[:len(good)/2],
		"badmagic":  append([]byte("NOTATRCE"), good[8:]...),
	}
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xFF
	cases["bitflip"] = flipped

	for name, data := range cases {
		if _, err := Import(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: import accepted corrupt data", name)
		}
	}
	if _, err := Import(bytes.NewReader(good)); err != nil {
		t.Errorf("pristine file rejected after corruption checks: %v", err)
	}
}

// TestRegisterShared proves an imported trace takes over its (name, seed)
// stream and that unknown names join the roster under the Imported category.
func TestRegisterShared(t *testing.T) {
	defer ResetShared()
	w, _ := ByName("linpack")
	m := Shared(w, 9)
	m.ensure(200)
	var buf bytes.Buffer
	if err := m.Export(&buf, 0); err != nil {
		t.Fatalf("export: %v", err)
	}
	im, err := Import(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	im.name = "external-capture"
	RegisterShared(im)
	reg, ok := ByName("external-capture")
	if !ok {
		t.Fatal("imported workload missing from roster")
	}
	if reg.Category != Imported {
		t.Fatalf("imported workload category = %q, want %q", reg.Category, Imported)
	}
	// Replaying the registered name yields the imported refs.
	cur := Replay(reg, 9, 200)
	gen := w.Build(9)
	var want, got Ref
	for i := 0; i < 200; i++ {
		gen.Next(&want)
		cur.Next(&got)
		if got != want {
			t.Fatalf("registered trace diverges at ref %d", i)
		}
	}
}
