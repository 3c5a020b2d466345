package trace

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"testing"

	"dspatch/internal/memaddr"
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

// TestMaterializeBytesPerRef: a materialized stream costs what its records
// encode to, with no guessed reserve. Materializing 100k refs of mcf
// allocates at most 8 bytes per ref, the PC dictionary included, and the
// heap keeps at most 7 per ref once the garbage is collected.
func TestMaterializeBytesPerRef(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	const n = 100_000
	w, ok := ByName("mcf")
	if !ok {
		t.Fatal("roster is missing mcf")
	}
	m := &Materialized{name: w.Name, seed: 1, gen: w.Build(1)}
	var before, after, kept runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m.ensure(n)
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(m)
	alloc := float64(after.TotalAlloc-before.TotalAlloc) / n
	retained := float64(int64(kept.HeapAlloc)-int64(before.HeapAlloc)) / n
	t.Logf("mcf: %.2f B/ref allocated, %.2f B/ref retained", alloc, retained)
	if alloc > 8 {
		t.Errorf("materializing %d refs allocated %.2f B/ref, budget 8", n, alloc)
	}
	if retained > 7 {
		t.Errorf("the materialized stream retains %.2f B/ref, budget 7", retained)
	}
}

// TestStreamEdgeValues runs refs that hit every boundary of the record
// encoding through FromRefs: lines 0 and 2^58−1 (the top of a 64-bit
// address space) with alternating jumps between them and a full 64-bit
// line, gaps 0 and 65535, a PC dictionary whose indices cross the 1-, 2-
// and 3-byte varint widths, and flags on refs 63, 64 and 127 and on the
// final ref. A cursor must replay them exactly, and Export -> Import ->
// Export must be byte-identical.
func TestStreamEdgeValues(t *testing.T) {
	const top = memaddr.Line(1<<58 - 1)
	var refs []Ref
	for i := 0; i < 130; i++ {
		r := Ref{PC: 0x400000, Line: 0, Gap: 0}
		if i%2 == 1 {
			r.Line, r.Gap = top, 1<<16-1
		}
		refs = append(refs, r)
	}
	refs = append(refs, Ref{PC: 0x400000, Line: math.MaxUint64, Gap: 1<<16 - 1}, Ref{PC: 0x400000, Line: 0, Gap: 0})
	// Dictionary indices 0..2^14+1: one past the last 1-byte and the last
	// 2-byte varint.
	for i := 1; i <= 1<<14+1; i++ {
		refs = append(refs, Ref{PC: memaddr.PC(0x400000 + 4*i), Line: memaddr.Line(1000 + i), Gap: i % 3})
	}
	refs[63].Write = true
	refs[64].Dep = true
	refs[127].Write, refs[127].Dep = true, true
	last := &refs[len(refs)-1]
	last.Write, last.Dep = true, true

	m, err := FromRefs("edges", 5, refs)
	if err != nil {
		t.Fatal(err)
	}
	replays := func(m *Materialized) {
		t.Helper()
		c := m.Cursor(len(refs))
		var got Ref
		for i, want := range refs {
			c.Next(&got)
			if got != want {
				t.Fatalf("ref %d replays %+v, recorded %+v", i, got, want)
			}
		}
	}
	replays(m)
	var first, second bytes.Buffer
	if err := m.Export(&first, 0); err != nil {
		t.Fatal(err)
	}
	back, err := Import(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	replays(back)
	if err := back.Export(&second, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("export -> import -> export is not byte-identical")
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
