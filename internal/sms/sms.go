// Package sms implements Spatial Memory Streaming (Somogyi et al., ISCA
// 2006 [73]) with the configuration the DSPatch paper evaluates (Table 3):
// 2KB regions, a 64-entry accumulation table, a 32-entry filter table and a
// pattern history table of 256 to 16K entries (16-way set-associative).
//
// SMS records the spatial footprint of each region generation as a bit
// pattern, associates it with a PC+offset signature of the region's trigger
// access, and replays the stored pattern when the same signature triggers a
// new region.
package sms

import (
	"dspatch/internal/idx"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
	"dspatch/internal/prefstats"
)

// RegionLines is the SMS region size in cache lines (2KB per the paper).
const RegionLines = 32

// Config sizes SMS.
type Config struct {
	ATEntries  int // accumulation table (active regions, >=2 accesses)
	FTEntries  int // filter table (regions with 1 access)
	PHTEntries int // pattern history table total entries
	PHTWays    int
}

// DefaultConfig returns the paper's full-size SMS (88KB-class).
func DefaultConfig() Config {
	return Config{ATEntries: 64, FTEntries: 32, PHTEntries: 16 << 10, PHTWays: 16}
}

// IsoStorageConfig returns the 256-entry PHT variant the paper compares at
// DSPatch-equivalent storage (Fig. 5, Fig. 14).
func IsoStorageConfig() Config {
	c := DefaultConfig()
	c.PHTEntries = 256
	return c
}

// WithPHTEntries returns cfg resized to n PHT entries (for the Fig. 5 sweep).
func (c Config) WithPHTEntries(n int) Config {
	c.PHTEntries = n
	return c
}

type region uint64 // line >> 5: 2KB-aligned region number

type ftEntry struct {
	reg     region
	sig     uint64
	trigger int
	valid   bool
	used    uint64
}

type atEntry struct {
	reg     region
	sig     uint64
	pattern uint32
	valid   bool
	used    uint64
}

type phtEntry struct {
	tag     uint64
	pattern uint32
	valid   bool
	used    uint64
}

// SMS is one core's Spatial Memory Streaming prefetcher.
type SMS struct {
	cfg   Config
	ft    []ftEntry
	at    []atEntry
	pht   []phtEntry // sets × ways
	sets  int
	clock uint64

	// atIdx and ftIdx map live region numbers to their table slots, so the
	// per-train lookups probe O(1) instead of scanning the fully associative
	// tables. Maintained on every AT/FT mutation.
	atIdx *idx.Table
	ftIdx *idx.Table

	// Telemetry: plain hot-path counters, snapshotted by ReportStats.
	statPromotions uint64 // FT regions promoted to the AT
	statPHTStores  uint64 // completed patterns archived in the PHT
	statPHTHits    uint64 // new-region signatures found in the PHT
	statPHTMisses  uint64
	statIssued     uint64 // prefetch requests emitted on PHT replay
}

// New builds an SMS instance.
func New(cfg Config) *SMS {
	sets := cfg.PHTEntries / cfg.PHTWays
	if sets <= 0 || sets&(sets-1) != 0 {
		panic("sms: PHT set count must be a positive power of two")
	}
	return &SMS{
		cfg:   cfg,
		ft:    make([]ftEntry, cfg.FTEntries),
		at:    make([]atEntry, cfg.ATEntries),
		pht:   make([]phtEntry, cfg.PHTEntries),
		sets:  sets,
		atIdx: idx.New(cfg.ATEntries),
		ftIdx: idx.New(cfg.FTEntries),
	}
}

// Name implements prefetch.Prefetcher.
func (s *SMS) Name() string { return "sms" }

// signature combines the trigger PC and the trigger offset within the
// region — the paper's PC+offset signature.
func signature(pc memaddr.PC, off int) uint64 {
	return uint64(pc)<<5 | uint64(off)
}

func regionOf(l memaddr.Line) region { return region(l >> 5) }

// Train implements prefetch.Prefetcher.
func (s *SMS) Train(a prefetch.Access, _ prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	s.clock++
	reg := regionOf(a.Line)
	off := a.Line.SegOffset()

	// Active region: accumulate.
	if e := s.lookupAT(reg); e != nil {
		e.pattern |= 1 << uint(off)
		e.used = s.clock
		return dst
	}
	// Filtered region: second unique offset promotes to the AT.
	if f := s.lookupFT(reg); f != nil {
		if f.trigger == off {
			return dst
		}
		s.promote(f, off)
		return dst
	}
	// New region: record trigger, and predict from history.
	s.allocFT(reg, signature(a.PC, off), off)
	if pattern, ok := s.phtLookup(signature(a.PC, off)); ok {
		s.statPHTHits++
		base := memaddr.Line(uint64(reg) << 5)
		for i := 0; i < RegionLines; i++ {
			if i == off || pattern&(1<<uint(i)) == 0 {
				continue
			}
			s.statIssued++
			dst = append(dst, prefetch.Request{Line: base + memaddr.Line(i)})
		}
	} else {
		s.statPHTMisses++
	}
	return dst
}

func (s *SMS) lookupAT(reg region) *atEntry {
	if i, ok := s.atIdx.Get(uint64(reg)); ok {
		return &s.at[i]
	}
	return nil
}

func (s *SMS) lookupFT(reg region) *ftEntry {
	if i, ok := s.ftIdx.Get(uint64(reg)); ok {
		return &s.ft[i]
	}
	return nil
}

func (s *SMS) allocFT(reg region, sig uint64, trigger int) {
	victim := 0
	oldest := ^uint64(0)
	for i := range s.ft {
		if !s.ft[i].valid {
			victim = i
			break
		}
		if s.ft[i].used < oldest {
			oldest, victim = s.ft[i].used, i
		}
	}
	if s.ft[victim].valid {
		s.ftIdx.Del(uint64(s.ft[victim].reg))
	}
	s.ft[victim] = ftEntry{reg: reg, sig: sig, trigger: trigger, valid: true, used: s.clock}
	s.ftIdx.Put(uint64(reg), victim)
}

// promote moves a filter-table region into the accumulation table; the AT
// victim's completed pattern is archived in the PHT.
func (s *SMS) promote(f *ftEntry, secondOff int) {
	s.statPromotions++
	victim := 0
	oldest := ^uint64(0)
	for i := range s.at {
		if !s.at[i].valid {
			victim = i
			oldest = 0
			break
		}
		if s.at[i].used < oldest {
			oldest, victim = s.at[i].used, i
		}
	}
	if s.at[victim].valid {
		s.phtStore(s.at[victim].sig, s.at[victim].pattern)
		s.atIdx.Del(uint64(s.at[victim].reg))
	}
	s.at[victim] = atEntry{
		reg:     f.reg,
		sig:     f.sig,
		pattern: 1<<uint(f.trigger) | 1<<uint(secondOff),
		valid:   true,
		used:    s.clock,
	}
	s.atIdx.Put(uint64(f.reg), victim)
	s.ftIdx.Del(uint64(f.reg))
	f.valid = false
}

func (s *SMS) phtSet(sig uint64) []phtEntry {
	h := memaddr.FoldXOR(sig, 32)
	idx := int(h) & (s.sets - 1)
	return s.pht[idx*s.cfg.PHTWays : (idx+1)*s.cfg.PHTWays]
}

func (s *SMS) phtStore(sig uint64, pattern uint32) {
	s.statPHTStores++
	set := s.phtSet(sig)
	victim := 0
	oldest := ^uint64(0)
	for i := range set {
		if set[i].valid && set[i].tag == sig {
			set[i].pattern = pattern
			set[i].used = s.clock
			return
		}
		if !set[i].valid {
			victim = i
			oldest = 0
		} else if set[i].used < oldest {
			oldest, victim = set[i].used, i
		}
	}
	set[victim] = phtEntry{tag: sig, pattern: pattern, valid: true, used: s.clock}
}

func (s *SMS) phtLookup(sig uint64) (uint32, bool) {
	set := s.phtSet(sig)
	for i := range set {
		if set[i].valid && set[i].tag == sig {
			set[i].used = s.clock
			return set[i].pattern, true
		}
	}
	return 0, false
}

// ReportStats implements prefetch.StatsReporter.
func (s *SMS) ReportStats() []prefstats.Stats {
	st := prefstats.New(s.Name())
	st.Count("trains", s.clock)
	st.Count("at_promotions", s.statPromotions)
	st.Count("pht_stores", s.statPHTStores)
	st.Count("pht_hits", s.statPHTHits)
	st.Count("pht_misses", s.statPHTMisses)
	st.Count("issued", s.statIssued)
	return []prefstats.Stats{st}
}

// StorageBits implements prefetch.Prefetcher: PHT entry = pattern(32) +
// tag(16) + LRU(4); AT entry = region tag(37) + sig(21) + pattern(32);
// FT entry = region tag(37) + sig(21) + offset(5).
func (s *SMS) StorageBits() int {
	pht := s.cfg.PHTEntries * (32 + 16 + 4)
	at := s.cfg.ATEntries * (37 + 21 + 32)
	ft := s.cfg.FTEntries * (37 + 21 + 5)
	return pht + at + ft
}
