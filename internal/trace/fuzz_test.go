package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
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
		specs, err := ParseSpecs(data)
		if err != nil {
			return
		}
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
