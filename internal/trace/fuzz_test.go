package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"testing"

	"dspatch/internal/memaddr"
)

// tinyTraceFile exports a 70-ref trace: one complete flag word plus a
// partial one, negative and positive line deltas, repeated PCs, writes and
// dependent loads.
func tinyTraceFile(tb testing.TB) []byte {
	tb.Helper()
	refs := make([]Ref, 70)
	for i := range refs {
		refs[i] = Ref{
			PC:    memaddr.PC(0x400000 + 16*(i%5)),
			Line:  memaddr.Line(1000 + 7*i - 40*(i%3)),
			Write: i%4 == 1,
			Gap:   i % 9,
			Dep:   i%6 == 2,
		}
	}
	m, err := FromRefs("tiny", -3, refs)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Export(&buf, 0); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// resealed returns data with its CRC tail recomputed over the body, so a
// mutated file gets past the checksum and into the column decoder.
func resealed(data []byte) []byte {
	if len(data) < len(traceMagic)+4 {
		return data
	}
	out := bytes.Clone(data)
	body := out[len(traceMagic) : len(out)-4]
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(body))
	return out
}

// checkImportRoundTrip imports data and, if Import accepts it, requires
// Export -> Import to give back the same header, refs and fingerprint.
func checkImportRoundTrip(t *testing.T, data []byte) {
	m, err := Import(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := m.Export(&buf, m.Len()); err != nil {
		t.Fatalf("export of an accepted trace: %v", err)
	}
	again, err := Import(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-import of an exported trace: %v", err)
	}
	if again.Name() != m.Name() || again.Seed() != m.Seed() || again.Len() != m.Len() {
		t.Fatalf("header (%q, %d, %d) came back as (%q, %d, %d)",
			m.Name(), m.Seed(), m.Len(), again.Name(), again.Seed(), again.Len())
	}
	if a, b := m.ContentFingerprint(), again.ContentFingerprint(); a != b {
		t.Fatalf("fingerprint %q came back as %q", a, b)
	}
	n := m.Len()
	ca, cb := m.Cursor(n), again.Cursor(n)
	var ra, rb Ref
	for i := 0; i < n; i++ {
		ca.Next(&ra)
		cb.Next(&rb)
		if ra != rb {
			t.Fatalf("ref %d: %+v came back as %+v", i, ra, rb)
		}
	}
}

// FuzzImport feeds arbitrary bytes to Import. DSPTRC01 is untrusted input:
// it arrives inline on POST /v1/scenarios, through -trace-import and through
// trace-kind specs. Each input is tried as given and re-sealed, so the
// fuzzer also reaches the decoder behind the checksum. Import must never
// panic, and a trace it accepts must survive Export -> Import with the same
// refs and the same content fingerprint.
func FuzzImport(f *testing.F) {
	good := tinyTraceFile(f)
	f.Add(good)
	for _, n := range []int{0, 7, len(traceMagic), len(traceMagic) + 3, len(good) / 2, len(good) - 4, len(good) - 1} {
		f.Add(good[:n])
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		checkImportRoundTrip(t, data)
		checkImportRoundTrip(t, resealed(data))
	})
}

// TestImportRejectsNonCanonical: a file whose checksum holds but that
// Export would not have written byte for byte is refused, so every accepted
// file's fingerprint survives a re-export.
func TestImportRejectsNonCanonical(t *testing.T) {
	good := tinyTraceFile(t)
	if _, err := Import(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	body := func(b []byte) []byte { return b[len(traceMagic) : len(b)-4] }
	withBody := func(edit func([]byte) []byte) []byte {
		out := append([]byte(traceMagic), edit(bytes.Clone(body(good)))...)
		return resealed(append(out, 0, 0, 0, 0))
	}
	cases := map[string][]byte{
		// The name length ("tiny" = 4) as a two-byte varint.
		"overlong varint": withBody(func(b []byte) []byte { return append([]byte{0x84, 0x00}, b[1:]...) }),
		"trailing byte":   withBody(func(b []byte) []byte { return append(b, 0) }),
		// The dep column's partial word is the body's last 8 bytes; 70 refs
		// leave its bits 6 and up unused.
		"stray flag bit": withBody(func(b []byte) []byte { b[len(b)-1] |= 0x80; return b }),
	}
	for name, data := range cases {
		if _, err := Import(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: import accepted a non-canonical file", name)
		}
	}
}

// readmeSpecs is the scenario-spec example of the README.
const readmeSpecs = `[
  {"name": "my-chase", "kind": "pointer",
   "pointer": {"style": "hash", "nodes": 65536, "nodes_per_page": 8,
               "occupancy": 0.5, "mean_gap": 12}},
  {"name": "blend", "kind": "mix",
   "mix": {"parts": [{"kind": "stream", "stream": {"streams": 4, "stride_lines": 1,
                      "page_pool": 64, "mean_gap": 8}},
                     {"kind": "pointer", "pointer": {"style": "list", "nodes": 8192,
                      "nodes_per_page": 8, "depth": 512, "mean_gap": 14}}],
           "weights": [3, 1]}},
  {"name": "captured", "kind": "trace", "trace": {"path": "captured.dsptrc"}}
]`

// FuzzParseSpecs feeds ParseSpecs arbitrary bytes and registers what it
// accepts on a fresh shared registry. Nothing may panic; every accepted spec
// that validates under a name new to the roster registers, bar trace
// payloads, which registration alone checks; and registering the accepted
// list again is a no-op. Trace specs naming a path are not registered: the
// target reads no files.
func FuzzParseSpecs(f *testing.F) {
	f.Add([]byte(readmeSpecs))
	inline, err := json.Marshal(ScenarioSpec{Name: "inline", Kind: KindTrace, Trace: &TraceSpec{Data: tinyTraceFile(f)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(inline)
	var renamed []ScenarioSpec
	for i, s := range builtinSpecs() {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if i%8 == 0 {
			s.Name += "-copy"
			renamed = append(renamed, s)
		}
	}
	b, err := json.Marshal(renamed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Cleanup(ResetShared)

	f.Fuzz(func(t *testing.T, data []byte) {
		ResetShared()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		specs, err := ParseSpecs(data)
		var accepted []ScenarioSpec
		for _, s := range specs {
			if s.Kind == KindTrace && s.Trace != nil && s.Trace.Path != "" {
				continue
			}
			_, taken := ByName(s.Name)
			w, err := RegisterSpec(s)
			if err != nil {
				if s.Validate() == nil && !taken && s.Kind != KindTrace {
					t.Fatalf("valid spec %q under a new name did not register: %v", s.Name, err)
				}
				continue
			}
			if got, ok := ByName(s.Name); !ok || got.Fingerprint != w.Fingerprint {
				t.Fatalf("registered spec %q is not in the roster", s.Name)
			}
			accepted = append(accepted, s)
		}
		runtime.ReadMemStats(&after)
		// Registration builds no generator (a spec's sizes, such as pointer
		// nodes or page pools, cost memory only when a stream is recorded),
		// so parsing and registering allocate the decoded specs and their
		// fingerprints, linear in the input. The densest input, an array of
		// empty objects, decodes every 3 bytes into a 112-byte ScenarioSpec
		// and the decoder's slice growth copies them again: about 190 bytes
		// per input byte at 1 MB. The one payload that grows on registration
		// is an inline trace, decoded and validated eagerly; Import caps its
		// ref count at one per 6 body bytes, so its stream is linear too.
		if bound := uint64(1<<20 + 512*len(data)); !raceEnabled && after.TotalAlloc-before.TotalAlloc > bound {
			t.Fatalf("parsing and registering %d input bytes allocated %d, bound %d", len(data), after.TotalAlloc-before.TotalAlloc, bound)
		}
		if err != nil {
			return
		}
		n := len(Workloads())
		for _, s := range accepted {
			before, _ := ByName(s.Name)
			w, err := RegisterSpec(s)
			if err != nil {
				t.Fatalf("re-registering %q: %v", s.Name, err)
			}
			if w.Fingerprint != before.Fingerprint || w.Source != before.Source {
				t.Fatalf("re-registering %q changed it: %s/%s -> %s/%s",
					s.Name, before.Source, before.Fingerprint, w.Source, w.Fingerprint)
			}
		}
		if got := len(Workloads()); got != n {
			t.Fatalf("re-registration changed the roster size %d -> %d", n, got)
		}
	})
}

// convertSeeds are the converter inputs of convert_test.go plus the
// committed ChampSim fixture, each also gzip-wrapped.
func convertSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	fixture, err := os.ReadFile("testdata/champsim_tiny.trace")
	if err != nil {
		tb.Fatal(err)
	}
	seeds := [][]byte{
		[]byte("# comment line\n0x400100 0x7f0000001000\n0x400104 0x7f0000001040 w\n0x400108 4096 r 7\n0x40010c 0x7f0000001080 r 3 1\n"),
		[]byte("0x10,0x2000,w,5,0\n0x14,0x2040\n"),
		[]byte("0xffffffffffffffff 0xfffffffffffff000\n0x1 0x40\n"),
		[]byte("0x1 0x40\n0x2 0x80\n!!!\n"),
		[]byte("1 2 r 3 1 9\n"),
		bytes.Join([][]byte{
			champsimInstr(0x100, [2]byte{}, [4]byte{}, [2]uint64{}, [4]uint64{}),
			champsimInstr(0x104, [2]byte{5}, [4]byte{}, [2]uint64{}, [4]uint64{0x7000_1000}),
			champsimInstr(0x108, [2]byte{6}, [4]byte{5}, [2]uint64{}, [4]uint64{0x7000_2000}),
			champsimInstr(0x10c, [2]byte{}, [4]byte{}, [2]uint64{0x7000_3000}, [4]uint64{}),
		}, nil),
		champsimInstr(0x100, [2]byte{}, [4]byte{}, [2]uint64{}, [4]uint64{0x1000})[:37],
		fixture,
	}
	for _, s := range seeds[:len(seeds):len(seeds)] {
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(s)
		zw.Close()
		seeds = append(seeds, gz.Bytes())
	}
	return seeds
}

// maxFuzzInput caps the decompressed size of a gzip-wrapped fuzz input, so
// a small compressed input cannot balloon the worker's memory.
const maxFuzzInput = 1 << 20

// FuzzConvert feeds arbitrary bytes to Convert in each input format, plain
// and gzip-wrapped. External traces are untrusted input (-trace-convert).
// Convert must never panic; its allocation must stay linear in the
// (decompressed) input; a conversion it accepts must replay exactly the refs
// the format's parser produces; and the converted trace must survive
// Export -> Import -> Export byte for byte.
func FuzzConvert(f *testing.F) {
	for _, s := range convertSeeds(f) {
		f.Add(s, uint8(0), uint16(0))
	}
	f.Add([]byte("0x1 0x40\n0x2 0x80\n0x3 0xc0\n"), uint8(1), uint16(2))
	formats := []string{"auto", "text", "champsim"}

	f.Fuzz(func(t *testing.T, data []byte, format uint8, maxRefs uint16) {
		// The decompressed input, for the allocation bound and the parser.
		plain := data
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			zr, err := gzip.NewReader(bytes.NewReader(data))
			if err != nil {
				plain = nil
			} else {
				// A corrupt stream keeps what decompressed before the error:
				// Convert may stop at MaxRefs before reaching it.
				plain, _ = io.ReadAll(io.LimitReader(zr, maxFuzzInput+1))
				if len(plain) > maxFuzzInput {
					return
				}
			}
		}
		opt := ConvertOptions{Name: "fuzz", Seed: 7, MaxRefs: int(maxRefs), Format: formats[int(format)%len(formats)]}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := Convert(bytes.NewReader(data), opt)
		runtime.ReadMemStats(&after)
		// Fixed costs (two 64 KiB read buffers, the scanner's 64 KiB line
		// buffer, a gzip reader) plus per input byte at most one text
		// line's copy and fields and the growth of the parsed Ref slice.
		if bound := uint64(1<<20 + 128*len(plain)); !raceEnabled && after.TotalAlloc-before.TotalAlloc > bound {
			t.Fatalf("converting %d input bytes allocated %d, bound %d", len(plain), after.TotalAlloc-before.TotalAlloc, bound)
		}
		if err != nil {
			return
		}

		parse := parseChampSimTrace
		if opt.Format == "text" || opt.Format == "auto" && looksText(plain[:min(len(plain), 512)]) {
			parse = parseTextTrace
		}
		want, err := parse(bufio.NewReader(bytes.NewReader(plain)), opt.MaxRefs)
		if err != nil {
			t.Fatalf("Convert accepted an input its parser rejects: %v", err)
		}
		if m.Len() != len(want) {
			t.Fatalf("converted %d refs, the parser produced %d", m.Len(), len(want))
		}
		c := m.Cursor(m.Len())
		var got Ref
		for i := range want {
			c.Next(&got)
			if got != want[i] {
				t.Fatalf("ref %d replays %+v, parsed %+v", i, got, want[i])
			}
		}

		var first, second bytes.Buffer
		if err := m.Export(&first, 0); err != nil {
			t.Fatalf("export: %v", err)
		}
		back, err := Import(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("import of a converted trace: %v", err)
		}
		if err := back.Export(&second, 0); err != nil {
			t.Fatalf("re-export: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("export -> import -> export is not byte-identical")
		}
	})
}
