package cache

import "dspatch/internal/memaddr"

// scanStore is the straightforward tag store the packed layout replaced:
// each set scans its ways, and each way carries a last-touch LRU stamp.
// FuzzTagStore runs it op by op beside the packed store as the oracle for
// every return value, replacement decision and counter.
type scanStore struct {
	cfg      Config
	ways     []scanWay
	setMask  uint64
	tagShift uint
	stamp    uint64 // last-touch clock
	stats    Stats
}

// scanWay is one cache line's tag state.
type scanWay struct {
	tag      uint64
	lru      uint64 // last-touch stamp; 0 on low-priority fill
	valid    bool
	dirty    bool
	prefetch bool // filled by a prefetch and not yet demanded
	used     bool // demanded at least once since fill
}

func newScanStore(cfg Config) *scanStore {
	sets := cfg.Sets()
	return &scanStore{
		cfg:      cfg,
		ways:     make([]scanWay, sets*cfg.Ways),
		setMask:  uint64(sets - 1),
		tagShift: uint(popShift(uint64(sets - 1))),
	}
}

func (c *scanStore) Stats() Stats { return c.stats }

func (c *scanStore) set(l memaddr.Line) []scanWay {
	i := int(uint64(l)&c.setMask) * c.cfg.Ways
	return c.ways[i : i+c.cfg.Ways]
}

func (c *scanStore) tag(l memaddr.Line) uint64 { return uint64(l) >> c.tagShift }

func (c *scanStore) Access(l memaddr.Line, write bool) Result {
	c.stats.DemandAccesses++
	set := c.set(l)
	tag := c.tag(l)
	c.stamp++
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			c.stats.DemandHits++
			r := Result{Hit: true}
			if w.prefetch && !w.used {
				r.FirstUseOfPrefetch = true
				c.stats.PrefetchHits++
			}
			w.prefetch = false
			w.used = true
			w.lru = c.stamp
			if write {
				w.dirty = true
			}
			return r
		}
	}
	c.stats.DemandMisses++
	return Result{}
}

func (c *scanStore) Probe(l memaddr.Line) bool {
	set := c.set(l)
	tag := c.tag(l)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *scanStore) Fill(l memaddr.Line, opts FillOpts) Victim {
	set := c.set(l)
	tag := c.tag(l)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == tag {
			w.dirty = w.dirty || opts.Dirty
			return Victim{}
		}
	}
	if opts.Prefetch {
		c.stats.PrefetchFills++
	}
	w := &set[c.pickVictim(set)]
	var victim Victim
	if w.valid {
		line := memaddr.Line(w.tag<<c.tagShift | uint64(l)&c.setMask)
		victim = Victim{Valid: true, Line: line, WasPrefetched: w.prefetch && !w.used, Dirty: w.dirty}
		c.stats.Evictions++
		if w.dirty {
			c.stats.DirtyEvictions++
		}
		if w.prefetch && !w.used {
			c.stats.PrefetchUnused++
		}
	}
	c.stamp++
	*w = scanWay{tag: tag, valid: true, dirty: opts.Dirty, prefetch: opts.Prefetch, lru: c.stamp}
	if opts.LowPriority {
		w.lru = 0
	}
	return victim
}

// pickVictim chooses the way to replace: first invalid; then, when
// DeadBlockAware, the LRU prefetched-but-unused line; otherwise plain LRU.
func (c *scanStore) pickVictim(set []scanWay) int {
	best, bestStamp := -1, ^uint64(0)
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	if c.cfg.DeadBlockAware {
		for i := range set {
			if set[i].prefetch && !set[i].used && set[i].lru < bestStamp {
				best, bestStamp = i, set[i].lru
			}
		}
		if best >= 0 {
			return best
		}
	}
	for i := range set {
		if set[i].lru < bestStamp {
			best, bestStamp = i, set[i].lru
		}
	}
	return best
}
