package trace

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"dspatch/internal/memaddr"
)

// Materialized is one recorded reference stream: the first n refs of a
// (workload, seed) generator, stored as compact read-only columns so every
// simulation of that stream replays the same buffer instead of re-running
// the generator. Columns are append-only — a prefix, once recorded, is
// immutable — which lets any number of concurrent replay cursors share the
// buffers while one writer extends them for a longer run.
//
// Column layout (structure-of-arrays):
//
//   - lines: line addresses, stored decoded so replay is a pure array read
//     (the file format delta-encodes them zigzag-varint instead; see
//     traceio.go),
//   - pcIdx + pcDict: PCs dictionary-coded to 32-bit indices (a workload
//     has few distinct PCs relative to its length),
//   - gaps: per-ref instruction gaps,
//   - write, dep: 1-bit-per-ref packed flag sets.
type Materialized struct {
	name string
	seed int64

	mu  sync.Mutex
	gen Generator // continuation state; nil for imported traces

	n     int
	lines []memaddr.Line
	pcIdx []uint32
	gaps  []uint16
	// write and dep hold only COMPLETE 64-ref words; the in-progress word
	// accumulates in writeCur/depCur and is appended once full. Extension
	// therefore never rewrites an array element a concurrent cursor can
	// read — the append-only sharing contract holds at word granularity,
	// not just element granularity (a flag OR into a shared partial word
	// would be a data race with replaying cursors).
	write    []uint64
	dep      []uint64
	writeCur uint64
	depCur   uint64

	pcDict []memaddr.PC
	pcMap  map[memaddr.PC]uint32

	// Lazy-import state (ImportFile): raw holds the undecoded body —
	// everything between the magic and the CRC tail — of an imported file
	// whose columns have not been decoded yet, hdrOff how much of it the
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
// generator-backed recordings, false for imported traces, whose length is
// fixed by their file.
func (m *Materialized) CanExtend() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gen != nil
}

// Validate forces a lazily-imported trace (ImportFile) to verify its
// checksum and decode its columns now, returning the error replay would
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
	// A lazily-imported trace decodes (and checksums) its columns on the way
	// to the first cursor: a corrupt file is rejected here, before any ref
	// replays.
	if err := m.decodeIfNeededLocked(); err != nil {
		panic(fmt.Sprintf("trace: imported trace %q rejected before replay: %v", m.name, err))
	}
	if m.n >= n {
		return
	}
	if m.gen == nil {
		panic(fmt.Sprintf("trace: imported trace %q holds %d refs, %d requested", m.name, m.n, n))
	}
	// Presize every column to n: growing by append would allocate several
	// times the columns' final size on the way there.
	add := n - m.n
	m.lines = slices.Grow(m.lines, add)
	m.pcIdx = slices.Grow(m.pcIdx, add)
	m.gaps = slices.Grow(m.gaps, add)
	words := n/64 - len(m.write)
	m.write = slices.Grow(m.write, words)
	m.dep = slices.Grow(m.dep, words)
	var r Ref
	for m.n < n {
		m.gen.Next(&r)
		if err := m.appendRefLocked(&r); err != nil {
			panic(err.Error())
		}
	}
}

// appendRefLocked records one ref at the tail of the columns. Callers hold
// m.mu. Generator extension (ensure) and external-trace conversion
// (FromRefs) share this append path, so both produce identical layouts.
func (m *Materialized) appendRefLocked(r *Ref) error {
	m.lines = append(m.lines, r.Line)
	idx, ok := m.pcMap[r.PC]
	if !ok {
		idx = uint32(len(m.pcDict))
		m.pcDict = append(m.pcDict, r.PC)
		if m.pcMap == nil {
			m.pcMap = make(map[memaddr.PC]uint32)
		}
		m.pcMap[r.PC] = idx
	}
	m.pcIdx = append(m.pcIdx, idx)
	if r.Gap < 0 || r.Gap > 1<<16-1 {
		return fmt.Errorf("trace: ref gap %d outside the recordable range [0, 65535]", r.Gap)
	}
	m.gaps = append(m.gaps, uint16(r.Gap))
	bit := uint64(1) << uint(m.n%64)
	if r.Write {
		m.writeCur |= bit
	}
	if r.Dep {
		m.depCur |= bit
	}
	m.n++
	if m.n%64 == 0 {
		m.write = append(m.write, m.writeCur)
		m.dep = append(m.dep, m.depCur)
		m.writeCur, m.depCur = 0, 0
	}
	return nil
}

// Cursor returns a Generator replaying the first n refs of the stream,
// extending the recording first if needed. Cursors are independent and
// read-only: any number may replay concurrently. Reading past n panics —
// the simulator always bounds its pulls.
func (m *Materialized) Cursor(n int) Generator {
	m.ensure(n)
	m.mu.Lock()
	c := &cursor{
		n:        n,
		lines:    m.lines,
		pcIdx:    m.pcIdx,
		gaps:     m.gaps,
		write:    m.write,
		dep:      m.dep,
		writeCur: m.writeCur,
		depCur:   m.depCur,
		pcDict:   m.pcDict,
	}
	m.mu.Unlock()
	return c
}

// cursor is one replay position over a Materialized prefix. The slice
// headers — plus the in-progress flag words by value — are snapshotted under
// the trace lock: later extensions only append past every array element the
// cursor can read, so no synchronization is needed while replaying.
type cursor struct {
	n        int
	i        int
	lines    []memaddr.Line
	pcIdx    []uint32
	gaps     []uint16
	write    []uint64
	dep      []uint64
	writeCur uint64 // flag bits of refs past the last complete word
	depCur   uint64
	pcDict   []memaddr.PC
}

// Next implements Generator.
func (c *cursor) Next(r *Ref) {
	i := c.i
	if i >= c.n {
		panic("trace: replay cursor read past the recorded length")
	}
	r.Line = c.lines[i]
	r.PC = c.pcDict[c.pcIdx[i]]
	r.Gap = int(c.gaps[i])
	bit := uint64(1) << uint(i%64)
	w, d := c.writeCur, c.depCur
	if word := i / 64; word < len(c.write) {
		w, d = c.write[word], c.dep[word]
	}
	r.Write = w&bit != 0
	r.Dep = d&bit != 0
	c.i = i + 1
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
// creating an empty one (with the generator as continuation state) on first
// use.
func Shared(w Workload, seed int64) *Materialized {
	k := storeKey{name: w.Name, seed: seed}
	storeMu.Lock()
	m := store[k]
	if m == nil {
		m = &Materialized{name: w.Name, seed: seed, gen: w.Build(seed)}
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
