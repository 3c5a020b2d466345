// Package cache implements the set-associative cache tag stores of the
// simulated hierarchy (paper Table 2): LRU replacement, per-line prefetch
// and use bits, low-priority insertion (used by DSPatch when the coverage
// pattern is untrusted, §3.6), and an optional prefetch-aware dead-block
// victim policy approximating the baseline LLC replacement of the paper.
//
// Timing (latencies, MSHRs) is composed on top by package memsys; this
// package is purely the state of which lines are resident.
//
// The tag store is the hottest data structure of the whole simulator — every
// access, probe and fill scans a set, and prefetch-heavy runs scan around
// ten sets per simulated reference. The layout is therefore built for the
// scan, not for the entry. Each set is one contiguous block of uint64 words:
//
//	word 0                      packed state: one valid/dirty/prefetch/used
//	                            nibble per way
//	words 1 .. 1+ptagWords      packed partial tags, one byte per way
//	word ordOff                 recency order: way indices in victim order,
//	                            LRU first, one nibble each, stored XORed with
//	                            the identity order
//	word ordOff+1               low-priority mask: one bit per way whose
//	                            last fill was LowPriority
//	words tagOff .. +Ways       full tags
//
// Membership tests SWAR-scan the partial-tag words (a whole 8-way set in one
// comparison) and only verify full tags on candidate bytes; victim selection
// derives its invalid and dead-block candidate sets from the packed state
// word with three bit operations and reads the LRU way off the order word's
// low nibble. Keeping a set's words adjacent means the typical probe touches
// one host cache line and a fill two, instead of gathering from four distant
// arrays. Storing the order XORed with the identity makes an all-zero block
// a valid empty set, so New allocates without an initialization pass.
//
// Replacement decisions are bit-for-bit those of the straightforward
// scan-the-ways implementation with per-way LRU stamps (scanStore, the
// oracle FuzzTagStore compares every operation against; the golden result
// corpus in internal/sim was proven against it in the simulator): first
// invalid way, else (when DeadBlockAware) the LRU prefetched-but-unused way,
// else plain LRU, ties always to the lowest way index. A low-priority fill
// has stamp 0 there, so low-priority ways lead the order in ascending way
// index and every other way follows in last-touch order. A way not filled
// since New has stamp 0 there too but no mask bit here; it is invalid, and an
// invalid way is always the victim, so its place in the order decides nothing.
package cache

import (
	"math/bits"

	"dspatch/internal/memaddr"
)

// Config sizes one cache level.
type Config struct {
	Name      string // for reporting, e.g. "L1D"
	SizeBytes int
	Ways      int
	// DeadBlockAware enables prefetch-aware victim selection: prefetched
	// lines that were never demanded are evicted first, approximating the
	// dead-block predictor the paper's baseline LLC uses.
	DeadBlockAware bool
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / memaddr.LineBytes / c.Ways }

// Per-way state bits, one nibble per way in the packed state word.
const (
	fValid uint64 = 1 << iota
	fDirty
	fPrefetch // filled by a prefetch and not yet demanded
	fUsed     // demanded at least once since fill

	nibbleLSBs = 0x1111111111111111 // bit 0 of every nibble
	byteLSBs   = 0x0101010101010101
	byteMSBs   = 0x8080808080808080
	nibbleMSBs = 0x8888888888888888

	// identOrder is the order word of ways 0..15 in ascending index order.
	identOrder = 0xFEDCBA9876543210
)

// Stats counts the events needed for the paper's coverage/accuracy and
// pollution analyses.
type Stats struct {
	DemandAccesses uint64
	DemandHits     uint64
	DemandMisses   uint64
	PrefetchFills  uint64
	PrefetchHits   uint64 // demand hits that were the first use of a prefetched line
	PrefetchUnused uint64 // prefetched lines evicted without any demand use
	Evictions      uint64
	DirtyEvictions uint64
}

// Cache is one level's tag store. The zero value is unusable; construct with
// New. Ways is limited to 16 so one packed word covers a set.
type Cache struct {
	cfg       Config
	data      []uint64 // per-set blocks, setStride words each
	setMask   uint64
	tagShift  uint // log2(set count), precomputed: tag() runs per access
	ways      int
	setStride int
	ordOff    int
	tagOff    int
	validFull uint64 // fValid in every in-use nibble
	ident     uint64 // identOrder restricted to the in-use nibbles
	mruShift  uint   // bit offset of the order word's MRU nibble
	stats     Stats
}

// New builds a cache from cfg. Set count must be a power of two and Ways at
// most 16 (the hierarchy uses 8 and 16).
func New(cfg Config) *Cache {
	if cfg.Ways < 1 || cfg.Ways > 16 {
		panic("cache: ways must be in [1,16]")
	}
	sets := cfg.Sets()
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	ptagWords := (cfg.Ways + 7) / 8
	ordOff := 1 + ptagWords
	tagOff := ordOff + 2
	stride := (tagOff + cfg.Ways + 7) &^ 7 // whole 64B lines per block
	return &Cache{
		cfg:       cfg,
		data:      make([]uint64, sets*stride),
		setMask:   uint64(sets - 1),
		tagShift:  uint(popShift(uint64(sets - 1))),
		ways:      cfg.Ways,
		setStride: stride,
		ordOff:    ordOff,
		tagOff:    tagOff,
		validFull: nibbleLSBs * fValid >> uint(64-4*cfg.Ways),
		ident:     identOrder & (^uint64(0) >> uint(64-4*cfg.Ways)),
		mruShift:  uint(4 * (cfg.Ways - 1)),
	}
}

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns the block of words holding the set for line l.
func (c *Cache) set(l memaddr.Line) []uint64 {
	i := int(uint64(l)&c.setMask) * c.setStride
	return c.data[i : i+c.setStride]
}

func (c *Cache) tag(l memaddr.Line) uint64 { return uint64(l) >> c.tagShift }

func popShift(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// findWay returns the way index of the given tag if resident, -1 otherwise:
// a SWAR scan of the packed partial tags yields candidate ways, verified
// against the full tag and the valid bit. False SWAR positives only cost an
// extra verification.
func (c *Cache) findWay(set []uint64, tag uint64) int {
	part := byteLSBs * (tag & 0xFF)
	fl := set[0]
	if c.ways <= 8 {
		// Single partial-tag word (the L1/L2 geometry): no outer loop.
		x := set[1] ^ part
		m := (x - byteLSBs) &^ x & byteMSBs
		for m != 0 {
			way := bits.TrailingZeros64(m) >> 3
			m &= m - 1
			if way >= c.ways {
				break
			}
			if set[c.tagOff+way] == tag && fl>>(uint(way)*4)&fValid != 0 {
				return way
			}
		}
		return -1
	}
	for w, pi := 0, 1; w < c.ways; w, pi = w+8, pi+1 {
		x := set[pi] ^ part
		// Zero-byte finder: MSB of each byte that equals the partial tag.
		m := (x - byteLSBs) &^ x & byteMSBs
		for m != 0 {
			way := w + bits.TrailingZeros64(m)>>3
			m &= m - 1
			if way >= c.ways {
				break
			}
			if set[c.tagOff+way] == tag && fl>>(uint(way)*4)&fValid != 0 {
				return way
			}
		}
	}
	return -1
}

// Result describes the outcome of a demand access.
type Result struct {
	Hit bool
	// FirstUseOfPrefetch reports that this demand hit a line a prefetcher
	// brought in and is its first demand use — the event that counts toward
	// prefetch coverage.
	FirstUseOfPrefetch bool
}

// Access performs a demand load or store: it updates LRU and the per-line
// use bits and returns whether the line was resident.
func (c *Cache) Access(l memaddr.Line, write bool) Result {
	c.stats.DemandAccesses++
	set := c.set(l)
	way := c.findWay(set, c.tag(l))
	if way < 0 {
		c.stats.DemandMisses++
		return Result{}
	}
	c.stats.DemandHits++
	r := Result{Hit: true}
	shift := uint(way) * 4
	nib := set[0] >> shift
	if nib&(fPrefetch|fUsed) == fPrefetch {
		r.FirstUseOfPrefetch = true
		c.stats.PrefetchHits++
	}
	nib = nib&^fPrefetch | fUsed
	if write {
		nib |= fDirty
	}
	set[0] = set[0]&^(0xF<<shift) | (nib&0xF)<<shift
	c.promote(set, way)
	return r
}

// Probe reports whether l is resident without perturbing any state.
func (c *Cache) Probe(l memaddr.Line) bool {
	return c.findWay(c.set(l), c.tag(l)) >= 0
}

// FillOpts qualifies a fill.
type FillOpts struct {
	Prefetch bool
	// LowPriority inserts the line at LRU position so it is the next victim
	// unless promoted by a demand hit (DSPatch's pollution mitigation).
	LowPriority bool
	Dirty       bool
	// Absent asserts the caller has just established (via Access or Probe,
	// with no intervening fill of this cache) that the line is not resident,
	// letting Fill skip its duplicate scan. Purely an optimization: the
	// caller owns the proof.
	Absent bool
}

// Victim describes the line displaced by a Fill.
type Victim struct {
	Valid         bool
	Line          memaddr.Line
	WasPrefetched bool // line was prefetched and never demanded
	Dirty         bool
}

// Fill installs line l. If l is already resident the flags are merged and no
// victim results. Otherwise the victim (if any way was valid) is returned so
// callers can write back dirty data and run pollution accounting.
func (c *Cache) Fill(l memaddr.Line, opts FillOpts) Victim {
	set := c.set(l)
	tag := c.tag(l)
	if !opts.Absent {
		if way := c.findWay(set, tag); way >= 0 {
			// Duplicate fill (e.g. a prefetch landing after the demand
			// already missed and filled). Keep the strongest state.
			if opts.Dirty {
				set[0] |= fDirty << (uint(way) * 4)
			}
			return Victim{}
		}
	}
	if opts.Prefetch {
		c.stats.PrefetchFills++
	}

	x := set[0]
	var vi int
	switch valid := x & nibbleLSBs; {
	case valid != c.validFull:
		// First invalid way, exactly as an ascending scan would find it.
		vi = bits.TrailingZeros64(c.validFull&^valid) / 4
	default:
		dead := uint64(0)
		if c.cfg.DeadBlockAware {
			// Nibbles with valid+prefetch set and used clear.
			dead = x & (x >> 2) &^ (x >> 3) & nibbleLSBs
		}
		if dead != 0 {
			vi = c.argminLRU(set, dead)
		} else {
			vi = c.argminAll(set)
		}
	}

	var victim Victim
	shift := uint(vi) * 4
	if nib := x >> shift; nib&fValid != 0 {
		victim = Victim{
			Valid:         true,
			Line:          c.lineOf(l, set[c.tagOff+vi]),
			WasPrefetched: nib&(fPrefetch|fUsed) == fPrefetch,
			Dirty:         nib&fDirty != 0,
		}
		c.stats.Evictions++
		if nib&fDirty != 0 {
			c.stats.DirtyEvictions++
		}
		if nib&(fPrefetch|fUsed) == fPrefetch {
			c.stats.PrefetchUnused++
		}
	}
	set[c.tagOff+vi] = tag
	nib := fValid
	if opts.Dirty {
		nib |= fDirty
	}
	if opts.Prefetch {
		nib |= fPrefetch
	}
	set[0] = x&^(0xF<<shift) | nib<<shift
	pi := 1 + vi>>3
	pshift := uint(vi&7) * 8
	set[pi] = set[pi]&^(0xFF<<pshift) | (tag&0xFF)<<pshift
	if opts.LowPriority {
		c.demote(set, vi)
	} else {
		c.promote(set, vi)
	}
	return victim
}

// unlink returns the order word ord without way's nibble, the nibbles above
// it moved down one place.
func unlink(ord uint64, way int) uint64 {
	x := ord ^ nibbleLSBs*uint64(way)
	// Zero-nibble finder. Only nibbles above a true zero can be flagged
	// falsely, so the lowest flag is way's nibble (way occurs once).
	m := (x - nibbleLSBs) &^ x & nibbleMSBs
	lo := uint64(1)<<(uint(bits.TrailingZeros64(m))&^3) - 1
	return ord&lo | ord>>4&^lo
}

// promote moves way to the MRU end of its set's order, scanStore's fresh
// nonzero stamp, and clears its low-priority bit.
func (c *Cache) promote(set []uint64, way int) {
	ord := unlink(set[c.ordOff]^c.ident, way) | uint64(way)<<c.mruShift
	set[c.ordOff] = ord ^ c.ident
	set[c.ordOff+1] &^= 1 << uint(way)
}

// demote moves way among the low-priority ways leading its set's order,
// scanStore's stamp 0: after every low-priority way of lower index, so ties
// still go to the lowest way.
func (c *Cache) demote(set []uint64, way int) {
	ord := unlink(set[c.ordOff]^c.ident, way)
	low := set[c.ordOff+1]
	at := 4 * uint(bits.OnesCount64(low&(1<<uint(way)-1)))
	lo := uint64(1)<<at - 1
	ord = ord&lo | (ord&^lo)<<4 | uint64(way)<<at
	set[c.ordOff] = ord ^ c.ident
	set[c.ordOff+1] = low | 1<<uint(way)
}

// argminAll returns the LRU way: the order word's low nibble. This is the
// victim of every fill into a full set without dead-block candidates, the
// hottest replacement path.
func (c *Cache) argminAll(set []uint64) int {
	return int((set[c.ordOff] ^ c.ident) & 0xF)
}

// argminLRU returns the first way in victim order whose nibble-LSB is set in
// mask. mask must name at least one way.
func (c *Cache) argminLRU(set []uint64, mask uint64) int {
	for ord := set[c.ordOff] ^ c.ident; ; ord >>= 4 {
		if way := int(ord & 0xF); mask>>(uint(way)*4)&1 != 0 {
			return way
		}
	}
}

// lineOf reconstructs a victim's line address from its tag and the set the
// fill targeted.
func (c *Cache) lineOf(fillLine memaddr.Line, tag uint64) memaddr.Line {
	setIdx := uint64(fillLine) & c.setMask
	return memaddr.Line(tag<<c.tagShift | setIdx)
}
