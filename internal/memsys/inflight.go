package memsys

import (
	"math/bits"

	"dspatch/internal/memaddr"
)

// inflightTable tracks outstanding DRAM fetches per port. It replaces the
// map from line to ready cycle the port used before: a fixed-capacity
// open-addressed hash table with linear probing, so the per-access lookup on
// the L1-hit path costs one multiply and (almost always) one word read
// instead of a runtime map operation, and no allocation ever happens after
// construction.
//
// The table mirrors the map's visible semantics exactly — this matters more
// than it looks. Per-port access cycles are not monotone (an independent load
// can issue at an earlier cycle than a previously dispatched dependent load),
// so an entry whose ready cycle has passed one access's `now` can still be
// observably in flight for a later access at an earlier cycle. Entries are
// therefore never expired lazily on the lookup/insert path; like the map,
// they persist until the port's prune threshold (4096 entries, demand path)
// triggers a rebuild that discards completed entries — the same rule, at the
// same trigger points, as the old map pruning. The golden result corpus
// (internal/sim/testdata/golden_results.json) was proven against the map, so
// it holds the table to the map's results.
//
// Layout is struct-of-arrays: probes walk a dense array of line keys (an
// impossible sentinel marks empty slots), and the ready cycle lives in a
// sibling array read only on a key match. Because removal only ever happens
// through the full rebuild, no tombstones are needed and probe chains stay
// intact between compactions. The initial capacity is twice the prune
// threshold, covering the prune-bounded steady state; a phase that
// legitimately outruns the prune (the prune fires only on demand DRAM
// misses, so a long streak of fully-covered prefetch traffic can pile up
// stale records) grows the table instead of degrading — matching the map,
// which simply grew too.
const (
	inflightSlots = 8192                       // initial capacity; power of two
	inflightPrune = 4096                       // prune threshold, as the map had
	inflightHashK = uint64(0x9E3779B97F4A7C15) // Fibonacci multiplier
)

// inflightNoLine marks an empty slot. Simulated line addresses are bounded
// far below it (physical spaces top out around 2^40 lines).
const inflightNoLine = ^memaddr.Line(0)

// inflightTable is the per-port table. The zero value is unusable; call init.
type inflightTable struct {
	lines    []memaddr.Line // keys; inflightNoLine = empty
	ready    []uint64       // ready cycle of each key's fetch
	mask     int            // len(lines)-1
	shift    uint           // hash -> slot index: 64 - log2(len(lines))
	occupied int
	scratchL []memaddr.Line // compaction survivors, reused across rebuilds
	scratchR []uint64
}

func (t *inflightTable) init() {
	t.alloc(inflightSlots)
	t.scratchL = make([]memaddr.Line, 0, 512)
	t.scratchR = make([]uint64, 0, 512)
}

// alloc sizes the slot arrays to n (a power of two), all empty.
func (t *inflightTable) alloc(n int) {
	t.lines = make([]memaddr.Line, n)
	for i := range t.lines {
		t.lines[i] = inflightNoLine
	}
	t.ready = make([]uint64, n)
	t.mask = n - 1
	t.shift = 64 - uint(bits.Len64(uint64(n-1)))
	t.occupied = 0
}

func (t *inflightTable) hash(line memaddr.Line) int {
	return int(uint64(line) * inflightHashK >> t.shift)
}

// lookup returns the ready cycle stored for line, completed or not — callers
// compare it against their own deadline exactly as they did with the map.
func (t *inflightTable) lookup(line memaddr.Line) (uint64, bool) {
	for i := t.hash(line); ; i = (i + 1) & t.mask {
		switch t.lines[i] {
		case line:
			return t.ready[i], true
		case inflightNoLine:
			return 0, false
		}
	}
}

// insert stores line's ready cycle, overwriting an existing entry for the
// same line in place — a re-fetched line replaces its stale record instead
// of leaking a second one.
func (t *inflightTable) insert(line memaddr.Line, ready uint64) {
	for i := t.hash(line); ; i = (i + 1) & t.mask {
		switch t.lines[i] {
		case line:
			t.ready[i] = ready
			return
		case inflightNoLine:
			t.occupied++
			if t.occupied > len(t.lines)-len(t.lines)/8 {
				// The prune-bounded steady state never gets here; a long
				// fully-covered prefetch streak (no demand misses, so no
				// prunes) can. Grow like the map did rather than degrade
				// into long probe chains; the next prune resets occupancy.
				t.grow()
				// Re-probe: the slot layout changed entirely.
				t.insertGrown(line, ready)
				return
			}
			t.lines[i] = line
			t.ready[i] = ready
			return
		}
	}
}

// insertGrown finishes an insert after grow: the key is known absent and
// free slots abound.
func (t *inflightTable) insertGrown(line memaddr.Line, ready uint64) {
	i := t.hash(line)
	for t.lines[i] != inflightNoLine {
		i = (i + 1) & t.mask
	}
	t.lines[i] = line
	t.ready[i] = ready
	t.occupied++
}

// grow doubles the table, rehashing every record (live and stale alike:
// staleness is time-relative and per-port cycles are not monotone, so grow
// must preserve contents exactly).
func (t *inflightTable) grow() {
	oldLines, oldReady := t.lines, t.ready
	t.alloc(2 * len(oldLines))
	for k, l := range oldLines {
		if l == inflightNoLine {
			continue
		}
		i := t.hash(l)
		for t.lines[i] != inflightNoLine {
			i = (i + 1) & t.mask
		}
		t.lines[i] = l
		t.ready[i] = oldReady[k]
		t.occupied++
	}
}

// prune discards completed entries once the table holds inflightPrune of
// them, exactly as the map's pruning did: entries with ready <= now go, live
// ones stay. The port invokes it where the map was pruned (the demand miss
// path), keeping the contents identical to the map's at every step.
func (t *inflightTable) prune(now uint64) {
	if t.occupied < inflightPrune {
		return
	}
	t.scratchL = t.scratchL[:0]
	t.scratchR = t.scratchR[:0]
	for i, l := range t.lines {
		if l != inflightNoLine && t.ready[i] > now {
			t.scratchL = append(t.scratchL, l)
			t.scratchR = append(t.scratchR, t.ready[i])
		}
		t.lines[i] = inflightNoLine
	}
	t.occupied = len(t.scratchL)
	for k, l := range t.scratchL {
		i := t.hash(l)
		for t.lines[i] != inflightNoLine {
			i = (i + 1) & t.mask
		}
		t.lines[i] = l
		t.ready[i] = t.scratchR[k]
	}
}
