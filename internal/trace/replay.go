package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"dspatch/internal/memaddr"
)

// Materialized is one recorded reference stream: the first n refs of a
// (workload, seed) generator, stored as one compact read-only byte stream so
// every simulation of that stream replays the same buffer instead of
// re-running the generator. The stream is append-only — a prefix, once
// recorded, is immutable — which lets any number of concurrent replay
// cursors share it while one writer extends it for a longer run.
//
// Each ref is one record of three uvarints:
//
//   - zigzag(line − previous line), in the same wrapping int64 arithmetic as
//     the DSPTRC01 delta column (traceio.go), so any 64-bit line round-trips
//     and a sequential stream costs a byte or two;
//   - the PC's index in pcDict (a workload has few distinct PCs relative to
//     its length);
//   - gap<<2 | write<<1 | dep: the gap is at most 65535, so the flags ride
//     in its low bits without overflow.
//
// Records live in blocks that are allocated at their final capacity and
// never move: blocks holds the full ones, tail the last one. A record never
// straddles two blocks, so a cursor decodes each block independently.
// Blocks grow from minBlock to maxBlock bytes while a stream is written.
//
// A recording holds only its bytes and its dictionary: the generator and the
// PC-to-index map exist only while the stream is written (ensure), and the
// tail block and dictionary are trimmed to their lengths once it is (seal).
// Extending a recording builds the generator again and skips the recorded
// prefix, so an idle stream costs its encoded bytes however much state its
// generator carries.
type Materialized struct {
	name string
	seed int64

	mu    sync.Mutex
	build func(seed int64) Generator // the workload's Build; nil for imported traces

	n      int
	blocks [][]byte
	tail   []byte
	last   memaddr.Line // line of the last recorded ref, the next delta's base

	pcDict []memaddr.PC

	// Lazy-import state (ImportFile): raw holds the undecoded body —
	// everything between the magic and the CRC tail — of an imported file
	// whose stream has not been decoded yet, hdrOff how much of it the
	// header parse consumed, and fileCRC the file's claimed checksum,
	// verified against raw at first decode so corruption is still rejected
	// before any ref replays. unmap releases the file mapping once decoding
	// finishes either way; decodeErr latches a decode failure.
	raw       []byte
	hdrOff    int
	fileCRC   uint32
	unmap     func()
	decodeErr error
}

const (
	minBlock = 256
	maxBlock = 16 << 10
	// maxRecord is the longest record: a 10-byte line delta, a 5-byte
	// 32-bit PC index and a 3-byte gap-and-flags word.
	maxRecord = binary.MaxVarintLen64 + binary.MaxVarintLen32 + 3

	// The third varint of a record: gap<<gapShift | writeBit | depBit.
	depBit   = 1
	writeBit = 2
	gapShift = 2
)

// Name returns the workload name the trace was recorded from.
func (m *Materialized) Name() string { return m.name }

// Seed returns the generator seed the trace was recorded at.
func (m *Materialized) Seed() int64 { return m.seed }

// Len returns the number of refs recorded so far.
func (m *Materialized) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// CanExtend reports whether the stream can record more refs: true for
// recordings of a workload's generator, which an extension rebuilds, false
// for imported and converted traces, whose length is fixed by their refs.
func (m *Materialized) CanExtend() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.build != nil
}

// Validate forces a lazily-imported trace (ImportFile) to verify its
// checksum and decode its stream now, returning the error replay would
// otherwise panic with. Eagerly-decoded and generator-backed traces validate
// trivially.
func (m *Materialized) Validate() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decodeIfNeededLocked()
}

// ensure extends the recording to at least n refs. Callers hold no locks.
func (m *Materialized) ensure(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// A lazily-imported trace decodes (and checksums) its stream on the way
	// to the first cursor: a corrupt file is rejected here, before any ref
	// replays.
	if err := m.decodeIfNeededLocked(); err != nil {
		panic(fmt.Sprintf("trace: imported trace %q rejected before replay: %v", m.name, err))
	}
	if m.n >= n {
		return
	}
	if m.build == nil {
		panic(fmt.Sprintf("trace: imported trace %q holds %d refs, %d requested", m.name, m.n, n))
	}
	// The generator and the PC map live only for this extension: the
	// generator replays the recorded prefix to reach the stream's end, and
	// the map is rebuilt from the dictionary so new refs keep its indices.
	gen := m.build(m.seed)
	var r Ref
	for i := 0; i < m.n; i++ {
		gen.Next(&r)
	}
	pcs := make(map[memaddr.PC]uint32, len(m.pcDict))
	for i, pc := range m.pcDict {
		pcs[pc] = uint32(i)
	}
	for m.n < n {
		gen.Next(&r)
		if err := m.appendRefLocked(&r, pcs); err != nil {
			panic(err.Error())
		}
	}
	m.sealLocked()
}

// appendRefLocked records one ref at the tail of the stream, indexing its PC
// through pcs, the dictionary's PC-to-index map. Callers hold m.mu.
// Generator extension (ensure) and external-trace conversion (FromRefs)
// share this append path, so both produce identical streams.
func (m *Materialized) appendRefLocked(r *Ref, pcs map[memaddr.PC]uint32) error {
	if r.Gap < 0 || r.Gap > 1<<16-1 {
		return fmt.Errorf("trace: ref gap %d outside the recordable range [0, 65535]", r.Gap)
	}
	idx, ok := pcs[r.PC]
	if !ok {
		idx = uint32(len(m.pcDict))
		m.pcDict = append(m.pcDict, r.PC)
		pcs[r.PC] = idx
	}
	gf := uint64(r.Gap) << gapShift
	if r.Write {
		gf |= writeBit
	}
	if r.Dep {
		gf |= depBit
	}
	m.appendRecordLocked(zigzag(int64(r.Line)-int64(m.last)), uint64(idx), gf)
	m.last = r.Line
	m.n++
	return nil
}

// appendRecordLocked appends one encoded record, opening a new block when
// the tail cannot hold the longest one. Bytes are only ever written past
// every length a cursor has snapshotted, and a full block's header is
// appended to blocks once and never rewritten, so concurrent cursors need no
// synchronization. Callers hold m.mu.
func (m *Materialized) appendRecordLocked(delta, idx, gf uint64) {
	if cap(m.tail)-len(m.tail) < maxRecord {
		if m.tail != nil {
			m.blocks = append(m.blocks, m.tail)
		}
		m.tail = make([]byte, 0, min(max(2*cap(m.tail), minBlock), maxBlock))
	}
	m.tail = binary.AppendUvarint(m.tail, delta)
	m.tail = binary.AppendUvarint(m.tail, idx)
	m.tail = binary.AppendUvarint(m.tail, gf)
}

// sealLocked ends every path that writes a stream (ensure, FromRefs, the
// lazy import decode): it trims the tail block and the PC dictionary to
// their lengths, so an idle stream holds no slack. Cursors keep the arrays
// they snapshotted, and a later extension writes only past them. Callers
// hold m.mu.
func (m *Materialized) sealLocked() {
	if cap(m.tail) > len(m.tail) {
		m.tail = slices.Clone(m.tail)
	}
	if cap(m.pcDict) > len(m.pcDict) {
		m.pcDict = slices.Clone(m.pcDict)
	}
}

// recordsLocked returns a reader over the stream as recorded now. Callers hold
// m.mu.
func (m *Materialized) recordsLocked() records {
	return records{blocks: m.blocks, tail: m.tail}
}

// records decodes a snapshot of a stream's records in order. It reads only
// bytes that were recorded before the snapshot, which later extensions
// never rewrite.
type records struct {
	buf    []byte   // the block being decoded
	pos    int      // next record's offset in buf
	blocks [][]byte // full blocks not yet entered
	tail   []byte   // the tail block as it was at the snapshot
}

// next decodes one record. Reading past the snapshot is a caller bug (the
// cursor bounds it by its length).
func (s *records) next() (delta, idx, gf uint64) {
	if s.pos == len(s.buf) {
		s.enter()
	}
	return s.uvarint(), s.uvarint(), s.uvarint()
}

// enter moves to the next block: the full blocks in order, then the tail.
func (s *records) enter() {
	if len(s.blocks) > 0 {
		s.buf, s.blocks = s.blocks[0], s.blocks[1:]
	} else {
		s.buf, s.tail = s.tail, nil
	}
	s.pos = 0
}

// uvarint decodes one varint of a record, with the one-byte case inline.
// The stream is written by appendRecordLocked, so every varint is well
// formed.
func (s *records) uvarint() uint64 {
	if b := s.buf[s.pos]; b < 0x80 {
		s.pos++
		return uint64(b)
	}
	return s.uvarintLong()
}

func (s *records) uvarintLong() uint64 {
	v, w := binary.Uvarint(s.buf[s.pos:])
	s.pos += w
	return v
}

// Cursor returns a Generator replaying the first n refs of the stream,
// extending the recording first if needed. Cursors are independent and
// read-only: any number may replay concurrently. Reading past n panics —
// the simulator always bounds its pulls.
func (m *Materialized) Cursor(n int) Generator {
	m.ensure(n)
	m.mu.Lock()
	c := &cursor{n: n, recs: m.recordsLocked(), pcDict: m.pcDict}
	m.mu.Unlock()
	return c
}

// cursor is one replay position over a Materialized prefix. Its record
// reader and dictionary header are snapshotted under the trace lock: later
// extensions only write past every byte and entry the cursor can read, so
// no synchronization is needed while replaying.
type cursor struct {
	n      int
	i      int
	line   memaddr.Line
	recs   records
	pcDict []memaddr.PC
}

// Next implements Generator.
func (c *cursor) Next(r *Ref) {
	if c.i >= c.n {
		panic("trace: replay cursor read past the recorded length")
	}
	c.i++
	delta, idx, gf := c.recs.next()
	c.line += memaddr.Line(unzigzag(delta))
	r.Line = c.line
	r.PC = c.pcDict[idx]
	r.Gap = int(gf >> gapShift)
	r.Write = gf&writeBit != 0
	r.Dep = gf&depBit != 0
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// storeKey identifies one shared stream: trace content is a deterministic
// function of (workload name, seed), with the requested length folded in by
// extension rather than keyed, so a 20k-ref bench run and a 200k-ref figure
// run of the same workload share one buffer.
type storeKey struct {
	name string
	seed int64
}

var (
	storeMu sync.Mutex
	store   = map[storeKey]*Materialized{}
)

// Replay returns a Generator replaying the first n refs of w's stream at the
// given seed, materializing (or extending) the process-shared recording on
// first use. Every simulation of the same (workload, seed) replays one
// buffer no matter which prefetcher configuration or worker goroutine asks.
func Replay(w Workload, seed int64, n int) Generator {
	return Shared(w, seed).Cursor(n)
}

// Shared returns the process-wide materialized stream for (w, seed),
// creating an empty one on first use. The stream keeps w.Build, not a
// generator: a generator is built only while the stream is extended.
func Shared(w Workload, seed int64) *Materialized {
	k := storeKey{name: w.Name, seed: seed}
	storeMu.Lock()
	m := store[k]
	if m == nil {
		m = &Materialized{name: w.Name, seed: seed, build: w.Build}
		store[k] = m
	}
	storeMu.Unlock()
	return m
}

// RegisterShared installs an imported trace as the process-wide stream for
// its (name, seed), replacing any generator-backed recording, and registers
// a roster entry under the Imported category when the name is unknown —
// after which simulations of that workload replay the imported refs.
// Unlike RegisterSpec, an explicit import may deliberately shadow a builtin
// workload's stream (the -trace-import replay-override path).
func RegisterShared(m *Materialized) {
	storeMu.Lock()
	store[storeKey{name: m.name, seed: m.seed}] = m
	storeMu.Unlock()
	if _, ok := ByName(m.name); !ok {
		DefaultRegistry.Register(Workload{
			Name:        m.name,
			Category:    Imported,
			Source:      SourceImported,
			Fingerprint: m.ContentFingerprint(),
			Build: func(int64) Generator {
				return m.Cursor(m.Len())
			},
			stream: m,
		})
	}
}

// registerTraceSpec resolves a trace-kind spec: the payload (a file path or
// inline DSPTRC01 bytes) is imported and validated eagerly — registration
// is where corruption must surface, not a later replay — then installed
// under the spec's name. The workload's fingerprint derives from the trace
// content, so the same trace registered by path and by inline data (how
// specs travel to fleet workers) yields the same simulation cache keys.
func (r *Registry) registerTraceSpec(s ScenarioSpec) (Workload, error) {
	var m *Materialized
	var err error
	if s.Trace.Path != "" {
		m, err = ImportFile(s.Trace.Path)
	} else {
		m, err = Import(bytes.NewReader(s.Trace.Data))
	}
	if err == nil {
		err = m.Validate()
	}
	if err != nil {
		return Workload{}, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	m.mu.Lock()
	m.name = s.Name // the roster name wins over the file's recorded name
	m.mu.Unlock()
	cat := s.Category
	if cat == "" {
		cat = Imported
	}
	w, err := r.registerChecked(Workload{
		Name:         s.Name,
		Category:     cat,
		MemIntensive: s.MemIntensive,
		Source:       SourceImported,
		Fingerprint:  m.ContentFingerprint(),
		Build: func(int64) Generator {
			return m.Cursor(m.Len())
		},
		stream: m,
	})
	if err != nil {
		return Workload{}, err
	}
	storeMu.Lock()
	store[storeKey{name: s.Name, seed: m.seed}] = m
	storeMu.Unlock()
	return w, nil
}

// ContentFingerprint identifies an imported or converted trace by content:
// its file CRC and ref count. Generator-backed recordings return "" — their
// content is a pure function of (name, seed).
func (m *Materialized) ContentFingerprint() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fileCRC == 0 {
		return ""
	}
	return fmt.Sprintf("trc-%08x-%d", m.fileCRC, m.n)
}

// Imported is the category of workloads ingested from trace files; it is not
// part of the paper's classes and never appears in category sweeps.
const Imported Category = "Imported"

// ResetShared drops every materialized stream and restores the registry to
// the builtin roster, releasing the imports' memory. Benchmarks and tests
// use it; normal callers never need to.
func ResetShared() {
	storeMu.Lock()
	store = map[storeKey]*Materialized{}
	storeMu.Unlock()
	DefaultRegistry.Reset()
}
