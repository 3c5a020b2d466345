package sweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
)

// journalCampaign is a distinct spec (refs=691) so memo cross-talk with
// other tests can't mask a simulation.
func journalCampaign() Campaign {
	return Campaign{
		Name: "jrnl",
		Base: Point{Refs: 691},
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}},
			L2:        []string{"none", "spp"},
		},
	}
}

// memStore is an in-memory ResultStore for journal tests.
type memStore struct {
	m map[string]sim.Result
}

func newMemStore() *memStore { return &memStore{m: map[string]sim.Result{}} }

func (s *memStore) Get(key string) (sim.Result, bool) {
	r, ok := s.m[key]
	return r, ok
}

func (s *memStore) Put(key string, res sim.Result) error {
	s.m[key] = res
	return nil
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")
	c := journalCampaign()
	jl, err := CreateJournal(path, "j000007", c)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	if err := jl.Done(0, "k0", ""); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := jl.Done(2, "k2self", "k2base"); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := jl.Drop(3, "max attempts (4) exhausted: boom"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	if err := jl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st, err := ReadJournalState(path)
	if err != nil {
		t.Fatalf("ReadJournalState: %v", err)
	}
	if st.JobID != "j000007" {
		t.Errorf("job id = %q, want j000007", st.JobID)
	}
	if st.Sealed {
		t.Error("journal reads sealed before Seal")
	}
	if got := st.Done[0]; got != (DoneEvent{Key: "k0"}) {
		t.Errorf("Done[0] = %+v", got)
	}
	if got := st.Done[2]; got != (DoneEvent{Key: "k2self", Base: "k2base"}) {
		t.Errorf("Done[2] = %+v", got)
	}
	if got := st.Dropped[3]; got != "max attempts (4) exhausted: boom" {
		t.Errorf("Dropped[3] = %q", got)
	}
	specJSON, _ := json.Marshal(c)
	gotSpec, _ := json.Marshal(st.Campaign)
	if string(specJSON) != string(gotSpec) {
		t.Errorf("campaign spec round-trip:\nwant %s\ngot  %s", specJSON, gotSpec)
	}

	// Reopen for append, seal, and re-read.
	jl2, st2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(st2.Done) != 2 || len(st2.Dropped) != 1 {
		t.Fatalf("reopened state: %d done %d dropped", len(st2.Done), len(st2.Dropped))
	}
	if err := jl2.Seal(json.RawMessage(`{"type":"summary","points":4}`)); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	jl2.Close()
	st3, err := ReadJournalState(path)
	if err != nil {
		t.Fatalf("ReadJournalState after seal: %v", err)
	}
	if !st3.Sealed {
		t.Error("journal not sealed after Seal")
	}
	if string(st3.Summary) != `{"type":"summary","points":4}` {
		t.Errorf("sealed summary = %s", st3.Summary)
	}
}

// TestJournalTornTailTruncation is the satellite's exhaustive crash test:
// truncate a valid journal at EVERY byte offset inside its last frame and
// require the scan to recover everything before the frame, never error,
// never panic — and OpenJournal to truncate the torn tail so appends resume
// cleanly.
func TestJournalTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")
	jl, err := CreateJournal(path, "j000001", journalCampaign())
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	if err := jl.Done(0, "key0", "base0"); err != nil {
		t.Fatalf("Done: %v", err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Done(1, "key1", "base1"); err != nil {
		t.Fatalf("Done: %v", err)
	}
	jl.Close()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(whole) {
		t.Fatalf("second frame added no bytes (%d -> %d)", len(whole), len(full))
	}

	for cut := len(whole); cut < len(full); cut++ {
		torn := filepath.Join(dir, "torn.journal")
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadJournalState(torn)
		if err != nil {
			t.Fatalf("cut at %d: ReadJournalState: %v", cut, err)
		}
		if _, ok := st.Done[0]; !ok {
			t.Fatalf("cut at %d: lost intact frame for pos 0", cut)
		}
		if _, ok := st.Done[1]; ok {
			t.Fatalf("cut at %d: torn frame for pos 1 was trusted", cut)
		}
		// Reopen for append: the torn tail must be truncated away and a
		// fresh append must land intact.
		jl2, _, err := OpenJournal(torn)
		if err != nil {
			t.Fatalf("cut at %d: OpenJournal: %v", cut, err)
		}
		if err := jl2.Done(1, "key1b", ""); err != nil {
			t.Fatalf("cut at %d: append after truncation: %v", cut, err)
		}
		jl2.Close()
		st2, err := ReadJournalState(torn)
		if err != nil {
			t.Fatalf("cut at %d: re-read: %v", cut, err)
		}
		if got := st2.Done[1]; got != (DoneEvent{Key: "key1b"}) {
			t.Fatalf("cut at %d: resumed append lost: %+v", cut, got)
		}
	}
}

// TestJournalCorruptPayloadStopsScan flips a payload byte (CRC mismatch)
// mid-file and requires the scan to distrust everything from that frame on.
func TestJournalCorruptPayloadStopsScan(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")
	jl, err := CreateJournal(path, "j000001", journalCampaign())
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Done(0, "key0", ""); err != nil {
		t.Fatal(err)
	}
	before, _ := os.ReadFile(path)
	if err := jl.Done(1, "key1", ""); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	data, _ := os.ReadFile(path)
	data[len(before)+12] ^= 0xFF // somewhere inside the last frame's payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ReadJournalState(path)
	if err != nil {
		t.Fatalf("ReadJournalState: %v", err)
	}
	if _, ok := st.Done[1]; ok {
		t.Error("corrupt frame was trusted")
	}
	if _, ok := st.Done[0]; !ok {
		t.Error("intact prefix lost")
	}
}

func TestJournalRejectsNonJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "not.journal")
	if err := os.WriteFile(path, []byte("this is not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournalState(path); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := OpenJournal(path); err == nil {
		t.Error("OpenJournal accepted bad magic")
	}
}

// TestEngineJournalResume runs a journaled campaign, then replays a
// partially-complete copy of its journal through a fresh Engine.Run and
// requires (a) a byte-identical stream and (b) zero simulations for the
// journaled prefix — the resumed run touches only the unfinished tail.
func TestEngineJournalResume(t *testing.T) {
	c := journalCampaign()
	dir := t.TempDir()
	store := newMemStore()

	// Uninterrupted journaled run: the reference stream.
	path := filepath.Join(dir, "ref.journal")
	jl, err := CreateJournal(path, "j000001", c)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	eng := Engine{Workers: 2, Journal: jl, Store: store}
	if _, err := eng.Run(context.Background(), c, func(line json.RawMessage) error {
		want = append(want, string(line))
		return nil
	}); err != nil {
		t.Fatalf("journaled Run: %v", err)
	}
	jl.Close()
	st, err := ReadJournalState(path)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Sealed {
		t.Fatal("completed campaign's journal is not sealed")
	}
	if len(st.Done) != 4 {
		t.Fatalf("journal has %d done records, want 4", len(st.Done))
	}

	// Simulate a crash after 2 points: forget the later done records.
	partial := &JournalState{
		JobID:    st.JobID,
		Campaign: st.Campaign,
		Done:     map[int]DoneEvent{0: st.Done[0], 1: st.Done[1]},
		Dropped:  map[int]string{},
	}

	c0 := experiments.EngineCounters()
	var got []string
	resumed := Engine{Workers: 2, Store: store, Resume: partial}
	if _, err := resumed.Run(context.Background(), c, func(line json.RawMessage) error {
		got = append(got, string(line))
		return nil
	}); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	c1 := experiments.EngineCounters()
	if c1.Sims != c0.Sims {
		// The tail's runs are memo hits from the reference run in this
		// process, so even the tail needs zero sims; the point is that the
		// replayed prefix reads the store, not the engine.
		t.Errorf("resumed run simulated %d times; journal replay must not simulate", c1.Sims-c0.Sims)
	}
	if len(got) != len(want) {
		t.Fatalf("resumed stream has %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if i == len(want)-1 {
			a, b = stripSummaryTelemetry(t, a), stripSummaryTelemetry(t, b)
		}
		if a != b {
			t.Errorf("record %d differs after resume:\nwant %s\ngot  %s", i, a, b)
		}
	}
}

// TestJournalReplayStoreMissReruns plants a journal claiming a completion
// the store cannot produce; the position must stay unresolved (and re-run)
// rather than error.
func TestJournalReplayStoreMissReruns(t *testing.T) {
	c := journalCampaign()
	st := &JournalState{
		Campaign: c,
		Done:     map[int]DoneEvent{0: {Key: "no-such-key"}},
		Dropped:  map[int]string{},
	}
	var lines []string
	eng := Engine{Workers: 2, Store: newMemStore(), Resume: st}
	sum, err := eng.Run(context.Background(), c, func(line json.RawMessage) error {
		lines = append(lines, string(line))
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sum.Points != 4 || len(lines) != 6 { // header + 4 points + summary
		t.Errorf("resumed-with-miss run: %d points, %d lines", sum.Points, len(lines))
	}
}

// intactPrefix walks data's frames as the format defines them — length word
// in bounds, payload present, CRC matching, payload a journal record — and
// returns the offset just past the last intact one.
func intactPrefix(data []byte) int64 {
	off := len(journalMagic)
	for len(data)-off >= 8 {
		n := binary.LittleEndian.Uint32(data[off:])
		if n == 0 || n > maxJournalFrame || uint64(len(data)-off-8) < uint64(n) {
			break
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:]) {
			break
		}
		var rec journalRecord
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		off += 8 + int(n)
	}
	return int64(off)
}

// FuzzJournalScan feeds arbitrary bytes to the journal scanner. Scanning
// must never panic; a file that scans (valid magic and spec frame) must
// recover exactly the state of its longest intact frame prefix, and
// OpenJournal must truncate the file to exactly that offset.
func FuzzJournalScan(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.journal")
	jl, err := CreateJournal(path, "j000007", journalCampaign())
	if err != nil {
		f.Fatal(err)
	}
	var frames [][]byte // the file after each append
	snap := func() {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, data)
	}
	snap()
	for _, step := range []func() error{
		func() error { return jl.Done(0, "k0", "") },
		func() error { return jl.Done(2, "k2self", "k2base") },
		func() error { return jl.Drop(3, "max attempts (4) exhausted: boom") },
		func() error { return jl.Seal(json.RawMessage(`{"type":"summary","points":4}`)) },
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
		snap()
	}
	jl.Close()
	full := frames[len(frames)-1]
	for _, data := range frames {
		f.Add(data)
	}
	// Torn tails: cuts inside the last frame's header and payload.
	prev := frames[len(frames)-2]
	for _, cut := range []int{len(prev) + 1, len(prev) + 7, len(prev) + 9, len(full) - 1} {
		f.Add(full[:cut])
	}
	corrupt := append([]byte(nil), full...)
	corrupt[len(frames[1])+12] ^= 0xFF // a payload byte mid-file: CRC mismatch
	f.Add(corrupt)
	f.Add([]byte(journalMagic))
	f.Add([]byte("this is not a journal at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, end, err := scanJournal(bytes.NewReader(data))
		path := filepath.Join(t.TempDir(), "f.journal")
		if werr := os.WriteFile(path, data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		jl, ost, oerr := OpenJournal(path)
		if err != nil {
			if oerr == nil {
				jl.Close()
				t.Fatalf("scan rejected the file (%v) but OpenJournal accepted it", err)
			}
			return
		}
		if oerr != nil {
			t.Fatalf("scan accepted the file but OpenJournal failed: %v", oerr)
		}
		jl.Close()
		if want := intactPrefix(data); end != want {
			t.Fatalf("scan ended at %d, longest intact frame prefix ends at %d", end, want)
		}
		pst, pend, err := scanJournal(bytes.NewReader(data[:end]))
		if err != nil || pend != end || !reflect.DeepEqual(pst, st) {
			t.Fatalf("intact prefix scans differently: end %d vs %d, err %v\n%+v\n%+v", pend, end, err, pst, st)
		}
		if !reflect.DeepEqual(ost, st) {
			t.Fatalf("OpenJournal state differs from scan:\n%+v\n%+v", ost, st)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != end {
			t.Fatalf("OpenJournal left %d bytes, want the intact prefix's %d", fi.Size(), end)
		}
	})
}
