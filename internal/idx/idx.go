// Package idx provides a tiny open-addressed hash index mapping uint64 keys
// (page numbers, region numbers) to small slot numbers. The prefetcher
// models use it to replace their per-train linear scans over fully
// associative tables — DSPatch's Page Buffer, SMS's accumulation and filter
// tables, AMPM's access maps — with O(1) probes while the tables themselves
// (and their LRU victim scans, which run only on eviction) stay untouched.
//
// The index is an acceleration structure, not state: it must answer exactly
// as a linear scan of the backing table would. The golden result corpus
// (internal/sim/testdata/golden_results.json) was proven against those scans
// and pins every model's results.
package idx

// Table maps uint64 keys to non-negative int32 slots with linear probing
// and backward-shift deletion. Capacity is fixed at construction; the load
// factor stays at or below 1/4, keeping probe chains short.
type Table struct {
	mask  uint64
	shift uint
	keys  []uint64
	slots []int32 // -1 = empty
}

// New returns a Table sized for up to capacity live keys.
func New(capacity int) *Table {
	size := 4
	for size < 4*capacity {
		size *= 2
	}
	t := &Table{
		mask:  uint64(size - 1),
		shift: uint(64 - log2(size)),
		keys:  make([]uint64, size),
		slots: make([]int32, size),
	}
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// home is the key's preferred position: a Fibonacci hash of the key, which
// scrambles the low bits page/region numbers share.
func (t *Table) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> t.shift
}

// Get returns the slot stored for k.
func (t *Table) Get(k uint64) (int, bool) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		if t.slots[i] < 0 {
			return 0, false
		}
		if t.keys[i] == k {
			return int(t.slots[i]), true
		}
	}
}

// Put inserts k → slot, or updates the slot if k is present.
func (t *Table) Put(k uint64, slot int) {
	for i := t.home(k); ; i = (i + 1) & t.mask {
		if t.slots[i] < 0 {
			t.keys[i] = k
			t.slots[i] = int32(slot)
			return
		}
		if t.keys[i] == k {
			t.slots[i] = int32(slot)
			return
		}
	}
}

// Del removes k if present, compacting the probe chain behind it
// (backward-shift deletion), so the table never accumulates tombstones.
func (t *Table) Del(k uint64) {
	i := t.home(k)
	for {
		if t.slots[i] < 0 {
			return // absent
		}
		if t.keys[i] == k {
			break
		}
		i = (i + 1) & t.mask
	}
	for {
		t.slots[i] = -1
		j := i
		for {
			j = (j + 1) & t.mask
			if t.slots[j] < 0 {
				return
			}
			// An entry may shift into the hole only if its home position
			// does not lie in the (i, j] probe interval — otherwise moving
			// it would break its own chain.
			h := t.home(t.keys[j])
			if (j-h)&t.mask >= (j-i)&t.mask {
				t.keys[i] = t.keys[j]
				t.slots[i] = t.slots[j]
				i = j
				break
			}
		}
	}
}

// Reset empties the table.
func (t *Table) Reset() {
	for i := range t.slots {
		t.slots[i] = -1
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
