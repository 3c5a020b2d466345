package trace

import (
	"bytes"
	"fmt"
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

// TestReplayExtension proves that extending a recording regenerates exactly
// the stream one recording in one go holds. For one workload of each
// generator kind, a stream recorded in steps (5k refs, then 20k, then 20k+1)
// must export the same bytes as one recorded at once, which pins the PC
// dictionary's indices across the map each extension rebuilds, and the
// cursor taken after each step must still replay its prefix of the
// generator's stream once the later steps have extended the recording.
func TestReplayExtension(t *testing.T) {
	const seed = 7
	steps := []int{5_000, 20_000, 20_001}
	total := steps[len(steps)-1]
	// The first roster workload of each kind, or else the first mix part of
	// it: no builtin workload is a bare deltas series.
	kinds := map[string]Workload{}
	add := func(name string, s ScenarioSpec) {
		if _, ok := kinds[s.Kind]; !ok {
			kinds[s.Kind] = Workload{Name: name, Build: s.generator}
		}
	}
	specs := append(builtinSpecs(), irregularSpecs()...)
	for _, s := range specs {
		add(s.Name, s)
	}
	for _, s := range specs {
		if s.Mix != nil {
			for i, p := range s.Mix.Parts {
				add(fmt.Sprintf("%s/part%d", s.Name, i), p)
			}
		}
	}
	for _, kind := range []string{KindStream, KindSpatial, KindDeltas, KindChase, KindPointer, KindMix} {
		w, ok := kinds[kind]
		if !ok {
			t.Errorf("the roster has no spec of kind %q", kind)
			continue
		}
		t.Run(kind+"/"+w.Name, func(t *testing.T) {
			stepped := &Materialized{name: w.Name, seed: seed, build: w.Build}
			var cursors []Generator
			for _, n := range steps {
				stepped.ensure(n)
				cursors = append(cursors, stepped.Cursor(n))
			}
			if !stepped.CanExtend() {
				t.Fatal("an extended recording can no longer extend")
			}
			once := &Materialized{name: w.Name, seed: seed, build: w.Build}
			once.ensure(total)
			var a, b bytes.Buffer
			if err := stepped.Export(&a, 0); err != nil {
				t.Fatal(err)
			}
			if err := once.Export(&b, 0); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("recorded in steps %v, the stream exports %d bytes that differ from the %d of one %d-ref recording",
					steps, a.Len(), b.Len(), total)
			}
			want := make([]Ref, total)
			gen := w.Build(seed)
			for i := range want {
				gen.Next(&want[i])
			}
			for k, c := range cursors {
				var got Ref
				for i := 0; i < steps[k]; i++ {
					if c.Next(&got); got != want[i] {
						t.Fatalf("cursor over %d refs diverges at ref %d after later extensions: %+v != %+v",
							steps[k], i, got, want[i])
					}
				}
			}
		})
	}
}

// TestMaterializeBytesPerRef: a materialized stream costs what its records
// encode to, with no guessed reserve and no generator kept behind it. Each
// input is recorded on its own, and the heap it keeps once the garbage is
// collected must be at most its encoded record bytes plus 8 bytes per PC
// dictionary entry plus a small constant, however much state its generator
// carries: the pointer-chase walks hold node rings of up to 1.6 MB at 5k
// refs. Materializing 100k refs of mcf allocates at most 8 bytes per ref,
// the dictionary and the short-lived generator included, and keeps at most
// 7 per ref.
func TestMaterializeBytesPerRef(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes what allocates")
	}
	const slack = 8 << 10 // the Materialized, its block list, size-class rounding of the tail and dictionary
	for _, tc := range []struct {
		name                    string
		refs                    int
		allocPerRef, keptPerRef float64 // 0: no per-ref budget
	}{
		{"mcf", 100_000, 8, 7},
		{"ll-walk-large", 5_000, 0, 0},
		{"graph-walk-mix", 5_000, 0, 0},
		{"tpcc", 5_000, 0, 0},
	} {
		w, ok := ByName(tc.name)
		if !ok {
			t.Fatalf("roster is missing %s", tc.name)
		}
		var before, after, kept runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		m := &Materialized{name: w.Name, seed: 1, build: w.Build}
		m.ensure(tc.refs)
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&kept)
		encoded := len(m.tail)
		for _, b := range m.blocks {
			encoded += len(b)
		}
		budget := encoded + 8*len(m.pcDict) + slack
		runtime.KeepAlive(m)
		allocated := int64(after.TotalAlloc - before.TotalAlloc)
		retained := int64(kept.HeapAlloc) - int64(before.HeapAlloc)
		t.Logf("%s: %d refs, %d B encoded, %d PCs; %.2f B/ref allocated, %d B retained (budget %d)",
			tc.name, tc.refs, encoded, len(m.pcDict), float64(allocated)/float64(tc.refs), retained, budget)
		if retained > int64(budget) {
			t.Errorf("%s: the stream retains %d B, over its %d encoded bytes + %d dictionary entries + %d",
				tc.name, retained, encoded, len(m.pcDict), slack)
		}
		if tc.allocPerRef > 0 && float64(allocated)/float64(tc.refs) > tc.allocPerRef {
			t.Errorf("%s: materializing %d refs allocated %.2f B/ref, budget %g",
				tc.name, tc.refs, float64(allocated)/float64(tc.refs), tc.allocPerRef)
		}
		if tc.keptPerRef > 0 && float64(retained)/float64(tc.refs) > tc.keptPerRef {
			t.Errorf("%s: the stream retains %.2f B/ref, budget %g",
				tc.name, float64(retained)/float64(tc.refs), tc.keptPerRef)
		}
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
