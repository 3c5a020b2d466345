package sweep

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
)

// The campaign journal is the daemon's write-ahead log for campaign
// progress: a single append-only file per campaign under -store-dir that
// records the spec, every per-point terminal event (completed with its
// result-store key, or dropped with a reason), and finally a sealed summary.
// A daemon or coordinator that crashes mid-campaign replays the unsealed
// journal on restart: journaled completions are fed back through the
// Recorder straight from the ResultStore (zero dispatches, zero
// simulations), journaled drops re-drop, and only genuinely unfinished
// points run again — the resumed NDJSON stream is byte-identical to an
// uninterrupted run because the Recorder emits in canonical index order
// either way.
//
// Framing: an 8-byte magic header ("DSPJRNL1"), then frames of
//
//	u32 LE payload length | u32 LE CRC32-IEEE(payload) | payload (JSON)
//
// Every append is fsync'd before it is acknowledged. A torn tail — a frame
// cut short by the crash, or one whose CRC does not match — is truncated
// away on open; everything before it is trusted. The journal claims a point
// only after its results are durably in the ResultStore (Put before Done),
// so a replay either finds the result or safely re-runs the point.

// journalMagic identifies a campaign journal file and its framing version.
const journalMagic = "DSPJRNL1"

// maxJournalFrame bounds a single frame's payload so a corrupt length word
// cannot drive a multi-gigabyte allocation during scan.
const maxJournalFrame = 16 << 20

// Journal record types.
const (
	journalSpec = "spec" // first record: job ID + campaign spec
	journalDone = "done" // point completed; result key(s) durable in the store
	journalDrop = "drop" // point abandoned with a reason
	journalSeal = "seal" // campaign finished; summary retained
)

// journalRecord is the union payload of every frame.
type journalRecord struct {
	Type     string          `json:"type"`
	JobID    string          `json:"job,omitempty"`
	Campaign json.RawMessage `json:"campaign,omitempty"`
	Pos      int             `json:"pos,omitempty"`
	Key      string          `json:"key,omitempty"`
	Base     string          `json:"base,omitempty"`
	Reason   string          `json:"reason,omitempty"`
	Summary  json.RawMessage `json:"summary,omitempty"`
}

// DoneEvent is a journaled point completion: the ResultStore keys the
// replay fetches the point's own (and, for non-baseline points, baseline)
// results under.
type DoneEvent struct {
	Key  string
	Base string
}

// JournalState is everything a scan recovers from a journal file.
type JournalState struct {
	JobID    string
	Campaign Campaign
	Done     map[int]DoneEvent
	Dropped  map[int]string
	Sealed   bool
	// Summary is the sealed summary record, present only when Sealed.
	Summary json.RawMessage
}

// Journal is an open, appendable campaign journal. Methods must be called
// from one goroutine at a time (the Recorder already imposes that
// discipline on its caller).
type Journal struct {
	f    *os.File
	path string
}

// CreateJournal starts a fresh journal at path, writing the magic header
// and the spec record (job ID + campaign) as the first durable frame.
func CreateJournal(path, jobID string, c Campaign) (*Journal, error) {
	spec, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("sweep: journal spec: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: journal create: %w", err)
	}
	if _, err := f.Write([]byte(journalMagic)); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("sweep: journal header: %w", err)
	}
	j := &Journal{f: f, path: path}
	if err := j.append(journalRecord{Type: journalSpec, JobID: jobID, Campaign: spec}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// OpenJournal reopens an existing journal for appending: it scans the file,
// truncates any torn tail, and positions the write cursor at the end of the
// last intact frame. The recovered state is returned alongside the journal.
func OpenJournal(path string) (*Journal, *JournalState, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sweep: journal open: %w", err)
	}
	st, end, err := scanJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: journal truncate torn tail: %w", err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sweep: journal seek: %w", err)
	}
	return &Journal{f: f, path: path}, st, nil
}

// ReadJournalState scans a journal read-only, tolerating a torn tail
// without modifying the file.
func ReadJournalState(path string) (*JournalState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: journal open: %w", err)
	}
	defer f.Close()
	st, _, err := scanJournal(f)
	return st, err
}

// scanJournal reads a journal's frames from r, returning the recovered
// state and the byte offset just past the last intact frame. A torn or
// corrupt frame ends the scan silently — it is the crash's half-written
// tail. A bad magic header or an unparseable first record is an error: the
// file is not a journal.
func scanJournal(r io.Reader) (*JournalState, int64, error) {
	br := make([]byte, len(journalMagic))
	if _, err := io.ReadFull(r, br); err != nil || !bytes.Equal(br, []byte(journalMagic)) {
		return nil, 0, fmt.Errorf("sweep: not a campaign journal (bad magic)")
	}
	st := &JournalState{
		Done:    map[int]DoneEvent{},
		Dropped: map[int]string{},
	}
	end := int64(len(journalMagic))
	var hdr [8]byte
	seenSpec := false
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break // clean EOF or torn length word: tail ends here
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxJournalFrame {
			break // corrupt length: treat as torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break // frame cut short by the crash
		}
		if crc32.ChecksumIEEE(payload) != want {
			break // payload damaged: everything from here is untrusted
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			break // valid CRC but unparseable JSON: stop trusting the tail
		}
		if !seenSpec {
			if rec.Type != journalSpec {
				return nil, 0, fmt.Errorf("sweep: journal first record is %q, want %q", rec.Type, journalSpec)
			}
			if err := json.Unmarshal(rec.Campaign, &st.Campaign); err != nil {
				return nil, 0, fmt.Errorf("sweep: journal campaign spec: %w", err)
			}
			st.JobID = rec.JobID
			seenSpec = true
		} else {
			switch rec.Type {
			case journalDone:
				st.Done[rec.Pos] = DoneEvent{Key: rec.Key, Base: rec.Base}
			case journalDrop:
				st.Dropped[rec.Pos] = rec.Reason
			case journalSeal:
				st.Sealed = true
				st.Summary = append(json.RawMessage(nil), rec.Summary...)
			}
		}
		end += int64(8 + n)
	}
	if !seenSpec {
		return nil, 0, fmt.Errorf("sweep: journal has no intact spec record")
	}
	return st, end, nil
}

// append frames, writes, and fsyncs one record. On a partial write the torn
// frame stays in the file — the next open truncates it away.
func (j *Journal) append(rec journalRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sweep: journal marshal: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("sweep: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("sweep: journal fsync: %w", err)
	}
	return nil
}

// Done journals position pos as completed, with the ResultStore key its
// result is durably stored under (and the baseline partner's key for
// non-baseline points). Call only after the store Put succeeded: the
// journal must never claim a result the store cannot produce.
func (j *Journal) Done(pos int, key, baseKey string) error {
	return j.append(journalRecord{Type: journalDone, Pos: pos, Key: key, Base: baseKey})
}

// Drop journals position pos as abandoned.
func (j *Journal) Drop(pos int, reason string) error {
	return j.append(journalRecord{Type: journalDrop, Pos: pos, Reason: reason})
}

// Seal journals the campaign's summary record, marking the journal
// complete: a sealed journal is never resumed, only retained or reaped.
func (j *Journal) Seal(summary json.RawMessage) error {
	return j.append(journalRecord{Type: journalSeal, Summary: summary})
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file. The journal stays on disk.
func (j *Journal) Close() error { return j.f.Close() }

// replay feeds the journal's terminal events through rec in ascending
// position order: completions are rehydrated from store (a store miss
// leaves the position unresolved — it simply re-runs), drops re-drop with
// their journaled reasons. It returns resolved[pos] == true for every
// position the replay settled, so the caller schedules only the rest.
func (st *JournalState) replay(rec *Recorder, store experiments.ResultStore) ([]bool, error) {
	resolved := make([]bool, rec.Len())
	for pos := 0; pos < rec.Len(); pos++ {
		if reason, ok := st.Dropped[pos]; ok {
			if err := rec.Drop(pos, reason); err != nil {
				return nil, err
			}
			resolved[pos] = true
			continue
		}
		ev, ok := st.Done[pos]
		if !ok {
			continue
		}
		self, found := store.Get(ev.Key)
		if !found {
			continue // store lost the result: re-run the point
		}
		var base *sim.Result
		if ev.Base != "" {
			b, found := store.Get(ev.Base)
			if !found {
				continue
			}
			base = &b
		}
		if err := rec.Complete(pos, self, base); err != nil {
			return nil, err
		}
		resolved[pos] = true
	}
	return resolved, nil
}
