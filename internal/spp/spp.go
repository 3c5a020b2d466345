// Package spp implements the Signature Pattern Prefetcher (Kim et al.,
// MICRO 2016 [54]) with the configuration the DSPatch paper evaluates
// (Table 3): 256-entry signature table, 512-entry pattern table, 8-entry
// global history register for cross-page continuation, 12-bit compressed
// delta-path signatures and global accuracy feedback.
//
// SPP correlates a signature — a hash of the last few in-page cache-line
// deltas — with the next likely deltas, and uses recursive lookahead with
// cascaded path confidence to prefetch several steps ahead. The eSPP variant
// (DSPatch paper §2.1) lowers the confidence threshold from 25% to 12.5%
// when more than half the DRAM bandwidth is unused.
package spp

import (
	"dspatch/internal/bitpattern"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
	"dspatch/internal/prefstats"
)

// Config sizes SPP. Construct via DefaultConfig and adjust.
type Config struct {
	STEntries  int // signature table entries (pages tracked)
	PTEntries  int // pattern table entries (signatures tracked)
	DeltasPer  int // delta slots per pattern entry
	GHREntries int
	SigBits    uint
	CounterMax int // saturation point of c_sig / c_delta (4-bit => 15)

	ThresholdPct int // path-confidence prefetch threshold (25 per paper)
	// LowBWThresholdPct, when non-zero, replaces ThresholdPct while DRAM
	// bandwidth utilization is below 50% — the eSPP enhancement.
	LowBWThresholdPct int

	MaxLookahead int // recursion depth bound
	FilterSize   int // prefetch filter entries (power of two)
}

// DefaultConfig returns the paper's SPP configuration.
func DefaultConfig() Config {
	return Config{
		STEntries:    256,
		PTEntries:    512,
		DeltasPer:    4,
		GHREntries:   8,
		SigBits:      12,
		CounterMax:   15,
		ThresholdPct: 25,
		MaxLookahead: 32,
		FilterSize:   1024,
	}
}

// EnhancedConfig returns eSPP: SPP that drops its threshold to 12.5% when
// bandwidth utilization is under 50%.
func EnhancedConfig() Config {
	c := DefaultConfig()
	c.LowBWThresholdPct = 12
	return c
}

type stEntry struct {
	tag     uint64
	lastOff int
	sig     uint16
	valid   bool
	used    uint64 // LRU stamp
}

type ptEntry struct {
	cSig   int
	deltas [4]int8
	cDelta [4]int
}

type ghrEntry struct {
	sig     uint16
	confPct int
	lastOff int
	delta   int8
	valid   bool
}

// SPP is one core's Signature Pattern Prefetcher instance.
type SPP struct {
	cfg   Config
	st    []stEntry
	pt    []ptEntry
	ghr   []ghrEntry
	clock uint64

	// Prefetch filter: tracks recently issued prefetch lines both to
	// suppress duplicates and to estimate global accuracy (the 10b feedback).
	filter    []memaddr.Line
	filterSet []bool
	issued    uint64
	useful    uint64
	name      string

	stMask uint64 // STEntries-1; table indexing runs on every training event
	ptMask uint64 // PTEntries-1

	// Telemetry: monotonic counters for ReportStats, kept separate from the
	// issued/useful feedback pair above, which ages (halves) and so cannot
	// report lifetime totals.
	statIssued     uint64 // prefetch requests appended
	statUseful     uint64 // demands that hit a recently prefetched line
	statSuppressed uint64 // candidates dropped by the prefetch filter
	statSTAllocs   uint64 // signature-table entries (re)allocated
	statGHRAdopts  uint64 // cross-page signature adoptions from the GHR
	statGHRInserts uint64 // out-of-page streams remembered in the GHR

	// confTab[cSig*(CounterMax+1)+cDelta] = 100*cDelta/cSig, precomputed
	// over the counter range so the lookahead loop (up to DeltasPer probes
	// per level, up to MaxLookahead levels per train) reads a byte from one
	// flat array instead of dividing. Counters never exceed CounterMax:
	// updatePT halves past the cap, and the up-rounded cSig halving
	// preserves cDelta <= cSig.
	confTab  []uint8
	confSpan int // row stride: CounterMax+1
}

// New builds an SPP instance.
func New(cfg Config) *SPP {
	if cfg.FilterSize&(cfg.FilterSize-1) != 0 {
		panic("spp: filter size must be a power of two")
	}
	if cfg.STEntries&(cfg.STEntries-1) != 0 || cfg.PTEntries&(cfg.PTEntries-1) != 0 {
		panic("spp: table sizes must be powers of two")
	}
	name := "spp"
	if cfg.LowBWThresholdPct > 0 {
		name = "espp"
	}
	span := cfg.CounterMax + 1
	confTab := make([]uint8, span*span)
	for cs := 1; cs < span; cs++ {
		for cd := 0; cd < span; cd++ {
			confTab[cs*span+cd] = uint8(100 * cd / cs)
		}
	}
	return &SPP{
		confTab:   confTab,
		confSpan:  span,
		cfg:       cfg,
		st:        make([]stEntry, cfg.STEntries),
		pt:        make([]ptEntry, cfg.PTEntries),
		ghr:       make([]ghrEntry, cfg.GHREntries),
		filter:    make([]memaddr.Line, cfg.FilterSize),
		filterSet: make([]bool, cfg.FilterSize),
		name:      name,
		stMask:    uint64(cfg.STEntries - 1),
		ptMask:    uint64(cfg.PTEntries - 1),
	}
}

// Name implements prefetch.Prefetcher.
func (s *SPP) Name() string { return s.name }

// updateSig folds delta into sig: sig = (sig << 3) ^ encode(delta).
func (s *SPP) updateSig(sig uint16, delta int) uint16 {
	enc := encodeDelta(delta)
	mask := uint16(1)<<s.cfg.SigBits - 1
	return ((sig << 3) ^ enc) & mask
}

// encodeDelta maps a signed in-page delta to the 7-bit sign+magnitude code
// SPP hashes into signatures.
func encodeDelta(delta int) uint16 {
	if delta < 0 {
		return uint16(((-delta)&0x3f)|0x40) & 0x7f
	}
	return uint16(delta & 0x3f)
}

// Train implements prefetch.Prefetcher. SPP trains on L1 misses observed at
// the L2 and issues lookahead prefetches within the 4KB page.
func (s *SPP) Train(a prefetch.Access, ctx prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	s.clock++
	page := a.Line.Page()
	off := a.Line.PageOffset()

	// Demand feedback for the accuracy scaler.
	s.noteDemand(a.Line)

	e := s.lookupST(page)
	var sig uint16
	if e == nil {
		e = s.allocST(page, off)
		// Cross-page continuation: if a GHR entry predicted a stream
		// entering this page at this offset, adopt its signature and path
		// confidence.
		if g := s.matchGHR(off); g != nil {
			s.statGHRAdopts++
			e.sig = s.updateSig(g.sig, int(g.delta))
			sig = e.sig
			return s.lookahead(page, off, sig, g.confPct, ctx, dst)
		}
		return dst
	}
	delta := off - e.lastOff
	if delta == 0 {
		return dst
	}
	s.updatePT(e.sig, delta)
	e.sig = s.updateSig(e.sig, delta)
	e.lastOff = off
	e.used = s.clock
	sig = e.sig
	return s.lookahead(page, off, sig, 100, ctx, dst)
}

func (s *SPP) lookupST(page memaddr.Page) *stEntry {
	e := &s.st[uint64(page)&s.stMask]
	if e.valid && e.tag == uint64(page) {
		return e
	}
	return nil
}

func (s *SPP) allocST(page memaddr.Page, off int) *stEntry {
	s.statSTAllocs++
	e := &s.st[uint64(page)&s.stMask]
	*e = stEntry{tag: uint64(page), lastOff: off, valid: true, used: s.clock}
	return e
}

// updatePT records that signature sig was followed by delta.
func (s *SPP) updatePT(sig uint16, delta int) {
	p := &s.pt[uint64(sig)&s.ptMask]
	p.cSig++
	slot := -1
	minC, minI := 1<<30, 0
	for i := 0; i < s.cfg.DeltasPer; i++ {
		if p.cDelta[i] > 0 && int(p.deltas[i]) == delta {
			slot = i
			break
		}
		if p.cDelta[i] < minC {
			minC, minI = p.cDelta[i], i
		}
	}
	if slot < 0 {
		slot = minI
		p.deltas[slot] = int8(delta)
		p.cDelta[slot] = 0
	}
	p.cDelta[slot]++
	if p.cSig > s.cfg.CounterMax {
		p.cSig = (p.cSig + 1) / 2
		for i := range p.cDelta {
			p.cDelta[i] /= 2
		}
	}
}

// threshold returns the active path-confidence threshold, honoring the eSPP
// bandwidth adaptation when configured.
func (s *SPP) threshold(ctx prefetch.Context) int {
	if s.cfg.LowBWThresholdPct > 0 && ctx != nil &&
		ctx.BandwidthUtilization() < bitpattern.Q2 {
		return s.cfg.LowBWThresholdPct
	}
	return s.cfg.ThresholdPct
}

// lookahead walks the pattern table recursively, issuing all candidates
// whose cascaded path confidence clears the threshold.
func (s *SPP) lookahead(page memaddr.Page, off int, sig uint16, pathPct int, ctx prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	thr := s.threshold(ctx)
	alpha := s.accuracyPct()
	thr100 := 100 * thr
	curOff, curSig, p := off, sig, pathPct
	for depth := 0; depth < s.cfg.MaxLookahead && p >= thr; depth++ {
		pe := &s.pt[uint64(curSig)&s.ptMask]
		if pe.cSig == 0 {
			break
		}
		bestConf, bestDelta := 0, 0
		for i := 0; i < s.cfg.DeltasPer; i++ {
			if pe.cDelta[i] == 0 {
				continue
			}
			conf := int(s.confTab[pe.cSig*s.confSpan+pe.cDelta[i]])
			// p*conf/100 >= thr without the division: all terms nonnegative,
			// so the floored quotient clears thr exactly when p*conf clears
			// 100*thr.
			if p*conf >= thr100 {
				t := curOff + int(pe.deltas[i])
				if t >= 0 && t < memaddr.LinesPage {
					dst = s.issue(page.Line(t), dst)
				}
			}
			if conf > bestConf {
				bestConf, bestDelta = conf, int(pe.deltas[i])
			}
		}
		if bestDelta == 0 {
			break
		}
		// Cascade: path confidence scales by the best branch and the global
		// accuracy feedback.
		p = p * bestConf / 100 * alpha / 100
		next := curOff + bestDelta
		if next < 0 || next >= memaddr.LinesPage {
			// Stream leaves the page: remember it in the GHR so the next
			// page's trigger can continue the path (cross-page bootstrap).
			s.insertGHR(ghrEntry{sig: curSig, confPct: p, lastOff: (next + memaddr.LinesPage) % memaddr.LinesPage, delta: int8(bestDelta), valid: true})
			break
		}
		curOff = next
		curSig = s.updateSig(curSig, bestDelta)
	}
	return dst
}

// issue appends a prefetch for l unless the filter has seen it recently.
func (s *SPP) issue(l memaddr.Line, dst []prefetch.Request) []prefetch.Request {
	idx := uint64(l) & uint64(s.cfg.FilterSize-1)
	if s.filterSet[idx] && s.filter[idx] == l {
		s.statSuppressed++
		return dst
	}
	s.filter[idx] = l
	s.filterSet[idx] = true
	s.issued++
	s.statIssued++
	return append(dst, prefetch.Request{Line: l})
}

// noteDemand credits the accuracy feedback when a demanded line was
// recently prefetched.
func (s *SPP) noteDemand(l memaddr.Line) {
	idx := uint64(l) & uint64(s.cfg.FilterSize-1)
	if s.filterSet[idx] && s.filter[idx] == l {
		s.useful++
		s.statUseful++
		s.filterSet[idx] = false
	}
	// Periodically age the feedback so it tracks phase changes.
	if s.issued >= 4096 {
		s.issued /= 2
		s.useful /= 2
	}
}

// accuracyPct is the global accuracy scaler alpha in percent. Before any
// feedback exists it is optimistic (100).
func (s *SPP) accuracyPct() int {
	if s.issued < 32 {
		return 100
	}
	a := int(100 * s.useful / s.issued)
	if a < 50 {
		a = 50 // floor keeps lookahead from collapsing entirely
	}
	return a
}

// matchGHR finds a GHR entry whose out-of-page stream would enter a new page
// at offset off.
func (s *SPP) matchGHR(off int) *ghrEntry {
	for i := range s.ghr {
		g := &s.ghr[i]
		if g.valid && g.lastOff == off {
			return g
		}
	}
	return nil
}

func (s *SPP) insertGHR(g ghrEntry) {
	s.statGHRInserts++
	// Replace an invalid entry or rotate round-robin.
	for i := range s.ghr {
		if !s.ghr[i].valid {
			s.ghr[i] = g
			return
		}
	}
	copy(s.ghr, s.ghr[1:])
	s.ghr[len(s.ghr)-1] = g
}

// ReportStats implements prefetch.StatsReporter.
func (s *SPP) ReportStats() []prefstats.Stats {
	st := prefstats.New(s.Name())
	st.Count("trains", s.clock)
	st.Count("issued", s.statIssued)
	st.Count("useful", s.statUseful)
	st.Count("filter_suppressed", s.statSuppressed)
	st.Count("st_allocs", s.statSTAllocs)
	st.Count("ghr_adoptions", s.statGHRAdopts)
	st.Count("ghr_inserts", s.statGHRInserts)
	return []prefstats.Stats{st}
}

// StorageBits implements prefetch.Prefetcher. Per-structure accounting:
// ST entry = tag(16)+lastOff(6)+sig(12); PT entry = 4×(delta 7 + cDelta 4) +
// cSig 4; GHR entry = sig(12)+conf(8)+off(6)+delta(7); filter 1b/entry plus
// the 10b feedback counters.
func (s *SPP) StorageBits() int {
	st := s.cfg.STEntries * (16 + 6 + int(s.cfg.SigBits))
	pt := s.cfg.PTEntries * (s.cfg.DeltasPer*(7+4) + 4)
	ghr := s.cfg.GHREntries * (int(s.cfg.SigBits) + 8 + 6 + 7)
	filter := s.cfg.FilterSize * 1
	return st + pt + ghr + filter + 10
}
