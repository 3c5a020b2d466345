// Package core implements DSPatch — the Dual Spatial Pattern Prefetcher of
// Bera, Nori, Mutlu and Subramoney (MICRO 2019) — the primary contribution
// this repository reproduces.
//
// DSPatch observes L1 misses per 4KB physical page in a small Page Buffer
// (PB). When a page generation ends (PB eviction), the accumulated access
// bit-pattern is anchored (rotated) to each trigger access and folded into a
// Signature Prediction Table (SPT) entry selected by a folded-XOR hash of
// the trigger PC. Each SPT entry stores two modulated patterns:
//
//   - CovP, coverage-biased: grown by ORing successive anchored program
//     patterns (at most three bit-adding ORs, tracked by 2-bit OrCount),
//   - AccP, accuracy-biased: replaced by program & CovP on every update,
//
// plus 2-bit goodness counters (MeasureCovP, MeasureAccP) per 2KB half. At
// prediction time the 2-bit DRAM bandwidth-utilization quartile broadcast by
// the memory controller selects CovP (low utilization), AccP (high
// utilization) or nothing (Fig. 10). Patterns are stored at 128B granularity
// (32 bits per page, §3.8) and each 2KB segment's first access may trigger:
// a segment-0 trigger predicts the whole page, a segment-1 trigger only the
// 2KB relative to itself (§3.7).
package core

import (
	"math/bits"

	"dspatch/internal/bitpattern"
	"dspatch/internal/idx"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
	"dspatch/internal/prefstats"
)

// Mode selects between the full DSPatch algorithm and the two ablation
// variants of paper Fig. 19.
type Mode int

// Modes.
const (
	// ModeFull is the complete algorithm with bandwidth-driven selection.
	ModeFull Mode = iota
	// ModeAlwaysCovP always predicts with the coverage-biased pattern,
	// ignoring bandwidth utilization.
	ModeAlwaysCovP
	// ModeModCovP predicts with CovP but throttles to nothing when
	// bandwidth utilization is in the highest quartile; it never uses AccP.
	ModeModCovP
)

func (m Mode) String() string {
	switch m {
	case ModeAlwaysCovP:
		return "AlwaysCovP"
	case ModeModCovP:
		return "ModCovP"
	default:
		return "DSPatch"
	}
}

// Config parameterizes DSPatch. DefaultConfig matches the paper (Table 1).
type Config struct {
	PBEntries  int // tracked pages (64)
	SPTEntries int // signature entries, tagless direct-mapped (256)

	// Compress stores patterns at 128B granularity, halving pattern storage
	// (§3.8). Disable only for the ablation study.
	Compress bool
	// DualTrigger enables the second (segment-1) trigger per page (§3.7).
	DualTrigger bool

	OrCountBits uint                // 2 → at most 3 bit-adding ORs
	MeasureBits uint                // 2-bit goodness counters
	AccThr      bitpattern.Quartile // accuracy threshold (50% → Q2)
	CovThr      bitpattern.Quartile // coverage threshold (50% → Q2)
	Mode        Mode
}

// DefaultConfig returns the paper's 3.6KB configuration.
func DefaultConfig() Config {
	return Config{
		PBEntries:   64,
		SPTEntries:  256,
		Compress:    true,
		DualTrigger: true,
		OrCountBits: 2,
		MeasureBits: 2,
		AccThr:      bitpattern.Q2,
		CovThr:      bitpattern.Q2,
		Mode:        ModeFull,
	}
}

// trigger records the first access to one 2KB segment of a tracked page.
type trigger struct {
	pcHash uint64 // folded-XOR of the trigger PC (the SPT index)
	off    int    // trigger line offset within the page [0,64)
	valid  bool
}

// pbEntry is one Page Buffer entry (Table 1: page number, 64b pattern, two
// trigger PC+offset pairs).
type pbEntry struct {
	page     memaddr.Page
	pattern  bitpattern.Pattern // 64b, absolute line offsets in the page
	triggers [memaddr.SegsPage]trigger
	valid    bool
}

// sptEntry is one Signature Prediction Table entry (Table 1: CovP 32b,
// AccP 32b, and per-half OrCount/MeasureCovP/MeasureAccP 2b counters).
// Patterns live in trigger-anchored space: bit 0 is the trigger line. Half 0
// covers the 2KB relative to the trigger; half 1 the rest of the page.
type sptEntry struct {
	covP bitpattern.Pattern
	accP bitpattern.Pattern

	orCount    [2]bitpattern.SatCounter
	measureCov [2]bitpattern.SatCounter
	measureAcc [2]bitpattern.SatCounter
}

// Stats reports DSPatch-internal prediction behaviour. All counters are
// plain uint64s bumped on the Train path — incrementing them allocates
// nothing, so they stay on unconditionally.
type Stats struct {
	Triggers        uint64
	PredictionsCovP uint64 // trigger halves predicted with CovP
	PredictionsAccP uint64
	PredictionsNone uint64 // trigger halves suppressed by the selector
	PatternResets   uint64 // CovP relearn events
	PageEvictions   uint64 // PB generations ended (learn events)

	PBLookups uint64 // PB probes (one per train)
	PBHits    uint64 // probes that found the page already tracked

	// Per-reason selection counts: which branch of the Fig. 10 tree (or the
	// Fig. 19 ablation selector) chose each trigger half's pattern. The CovP/
	// AccP/None totals above are the sums of the matching reasons.
	SelCovPLowBW    uint64 // bw < Q2 → CovP (bandwidth is free)
	SelCovPQ2       uint64 // bw == Q2, CovP goodness holding → CovP
	SelAccPQ2       uint64 // bw == Q2, CovP measured bad → AccP
	SelAccPQ3       uint64 // bw == Q3, AccP goodness holding → AccP
	SelNoneQ3       uint64 // bw == Q3, AccP measured bad → suppress
	SelCovPAlways   uint64 // ModeAlwaysCovP ablation
	SelNoneThrottle uint64 // ModeModCovP ablation at Q3
	LowPriority     uint64 // CovP selections demoted to LRU-fill priority

	// BWQuartiles histograms the DRAM bandwidth-utilization quartile
	// observed at each prediction (one sample per trigger).
	BWQuartiles [4]uint64
	// DegreeHist buckets the number of prefetch requests each trigger
	// emitted: 0,1,2,3,4,5-8,9-16,17-32,33+.
	DegreeHist [9]uint64

	// CompressionHist buckets the per-page-generation misprediction rate
	// that 128B-granularity compression alone would cause (paper Fig. 11b):
	// exactly 0%, (0,12.5%], (12.5,25%], (25,37.5%], (37.5,50%), exactly 50%.
	CompressionHist [6]uint64
}

// DSPatch is one core's prefetcher instance. It implements
// prefetch.Prefetcher; train it on L1 misses observed at the L2.
type DSPatch struct {
	cfg   Config
	pb    []pbEntry
	spt   []sptEntry
	stats Stats

	// pbPages mirrors pb[i].page for valid entries (an impossible sentinel
	// otherwise), so the most-recent-slot check reads one dense word.
	pbPages []memaddr.Page
	// pbIdx is the O(1) page → PB-slot index the lookup probes. Both are
	// maintained on every PB mutation.
	pbIdx *idx.Table

	// Exact-LRU bookkeeping for the victim choice: a most-recent-first list
	// ordered by trains, so its tail is the least recently trained entry.
	// While the PB is still filling, slots are handed out in index order
	// (pbFree), the first invalid slot: entries only invalidate all at once
	// (Flush), so the invalid set is always a suffix.
	pbMRU  int32 // most recently touched slot: spatial streams revisit it
	pbHead int32 // list head (most recent), -1 when empty
	pbTail int32 // list tail (least recent), -1 when empty
	pbFree int32 // next never-used slot while filling
	pbPrev []int32
	pbNext []int32

	patW    int  // stored pattern width: 32 compressed, 64 uncompressed
	sptBits uint // log2(SPTEntries), precomputed for the per-trigger hash
}

// New builds a DSPatch instance.
func New(cfg Config) *DSPatch {
	if cfg.SPTEntries&(cfg.SPTEntries-1) != 0 {
		panic("core: SPT entries must be a power of two")
	}
	w := memaddr.LinesPage
	if cfg.Compress {
		w /= 2
	}
	d := &DSPatch{
		cfg:     cfg,
		pb:      make([]pbEntry, cfg.PBEntries),
		spt:     make([]sptEntry, cfg.SPTEntries),
		pbPages: make([]memaddr.Page, cfg.PBEntries),
		pbIdx:   idx.New(cfg.PBEntries),
		pbHead:  -1,
		pbTail:  -1,
		pbPrev:  make([]int32, cfg.PBEntries),
		pbNext:  make([]int32, cfg.PBEntries),
		patW:    w,
		sptBits: uint(log2(cfg.SPTEntries)),
	}
	for i := range d.pbPages {
		d.pbPages[i] = pbNoPage
	}
	for i := range d.spt {
		d.initEntry(&d.spt[i])
	}
	return d
}

// pbNoPage marks an invalid PB slot in the dense page array; physical page
// numbers never reach it.
const pbNoPage = ^memaddr.Page(0)

func (d *DSPatch) initEntry(e *sptEntry) {
	e.covP = bitpattern.New(d.patW)
	e.accP = bitpattern.New(d.patW)
	for h := 0; h < 2; h++ {
		e.orCount[h] = bitpattern.NewSatCounter(d.cfg.OrCountBits)
		e.measureCov[h] = bitpattern.NewSatCounter(d.cfg.MeasureBits)
		e.measureAcc[h] = bitpattern.NewSatCounter(d.cfg.MeasureBits)
	}
}

// Name implements prefetch.Prefetcher.
func (d *DSPatch) Name() string {
	if d.cfg.Mode != ModeFull {
		return "dspatch-" + d.cfg.Mode.String()
	}
	return "dspatch"
}

// Stats returns a copy of the internal counters.
func (d *DSPatch) Stats() Stats { return d.stats }

// sptIndex is the folded-XOR hash of the PC into the tagless SPT (§3.4).
func (d *DSPatch) sptIndex(pc memaddr.PC) uint64 {
	return memaddr.FoldXOR(uint64(pc), d.sptBits)
}

// Train implements prefetch.Prefetcher: observe one L1 miss, update the PB,
// and emit prefetches if this access triggers a segment.
func (d *DSPatch) Train(a prefetch.Access, ctx prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	page := a.Line.Page()
	off := a.Line.PageOffset()
	seg := a.Line.Segment()

	d.stats.PBLookups++
	slot := d.lookupPB(page)
	if slot >= 0 {
		d.stats.PBHits++
	} else {
		slot = d.allocPB(page, ctx) // may learn from the evicted generation
	}
	e := &d.pb[slot]
	d.pbTouch(int32(slot))

	isTrigger := !e.triggers[seg].valid
	e.pattern = e.pattern.Set(off)
	if !isTrigger {
		return dst
	}
	if seg == 1 && !d.cfg.DualTrigger {
		// Single-trigger ablation: segment 1 never triggers, and its
		// accesses only accumulate into the page pattern.
		return dst
	}
	e.triggers[seg] = trigger{pcHash: d.sptIndex(a.PC), off: off, valid: true}
	d.stats.Triggers++
	return d.predict(page, e.triggers[seg], seg, ctx, dst)
}

// lookupPB returns the PB slot tracking page, or -1. The lookup
// first checks the most recently touched slot — spatial streams deliver
// several consecutive trains to one page — and falls back to the hashed
// index.
func (d *DSPatch) lookupPB(page memaddr.Page) int {
	if m := d.pbMRU; d.pbPages[m] == page {
		return int(m)
	}
	if i, ok := d.pbIdx.Get(uint64(page)); ok {
		return i
	}
	return -1
}

// pbTouch moves slot i to the front of the recency list.
func (d *DSPatch) pbTouch(i int32) {
	d.pbMRU = i
	if d.pbHead == i {
		return
	}
	prev, next := d.pbPrev[i], d.pbNext[i]
	if prev >= 0 {
		d.pbNext[prev] = next
	}
	if next >= 0 {
		d.pbPrev[next] = prev
	}
	if d.pbTail == i {
		d.pbTail = prev
	}
	d.pbNext[i] = d.pbHead
	d.pbPrev[i] = -1
	if d.pbHead >= 0 {
		d.pbPrev[d.pbHead] = i
	}
	d.pbHead = i
	if d.pbTail < 0 {
		d.pbTail = i
	}
}

func (d *DSPatch) allocPB(page memaddr.Page, ctx prefetch.Context) int {
	var victim int
	switch {
	case int(d.pbFree) < len(d.pb):
		// Filling phase: slots are issued in index order, the first invalid
		// slot (invalidation only happens wholesale, so invalid slots are
		// always a suffix).
		victim = int(d.pbFree)
		d.pbFree++
		i := int32(victim)
		d.pbNext[i] = d.pbHead
		d.pbPrev[i] = -1
		if d.pbHead >= 0 {
			d.pbPrev[d.pbHead] = i
		}
		d.pbHead = i
		if d.pbTail < 0 {
			d.pbTail = i
		}
	default:
		// Steady state: the recency-list tail is the least recently trained
		// entry. The caller's pbTouch moves it to the front.
		victim = int(d.pbTail)
	}
	if d.pb[victim].valid {
		d.learn(&d.pb[victim], ctx)
		d.pbIdx.Del(uint64(d.pb[victim].page))
	}
	d.pb[victim] = pbEntry{page: page, pattern: bitpattern.New(memaddr.LinesPage), valid: true}
	d.pbPages[victim] = page
	d.pbIdx.Put(uint64(page), victim)
	return victim
}

// anchored converts the PB's absolute 64b program pattern into the stored
// representation for a given trigger: rotate so the trigger line is bit 0,
// then (optionally) compress to 128B granularity.
func (d *DSPatch) anchored(program bitpattern.Pattern, trigOff int) bitpattern.Pattern {
	p := program.Anchor(trigOff)
	if d.cfg.Compress {
		p = p.Compress()
	}
	return p
}

// halves splits a stored-width pattern into its near (relative 2KB) and far
// halves.
func halves(p bitpattern.Pattern) [2]bitpattern.Pattern {
	return [2]bitpattern.Pattern{p.Half(0), p.Half(1)}
}

// setHalf writes half h of dst from src (src has half width of dst).
func setHalf(dst, src bitpattern.Pattern, h int) bitpattern.Pattern {
	if h == 0 {
		return bitpattern.Concat(src, dst.Half(1))
	}
	return bitpattern.Concat(dst.Half(0), src)
}

// learn folds one finished page generation into the SPT (step 5 of Fig. 7).
func (d *DSPatch) learn(e *pbEntry, ctx prefetch.Context) {
	d.stats.PageEvictions++
	d.noteCompressionError(e.pattern)
	bw := bitpattern.Q0
	if ctx != nil {
		bw = ctx.BandwidthUtilization()
	}
	for seg := 0; seg < memaddr.SegsPage; seg++ {
		tr := e.triggers[seg]
		if !tr.valid {
			continue
		}
		prog := d.anchored(e.pattern, tr.off)
		ent := &d.spt[tr.pcHash]
		// A segment-0 trigger owns the whole page (both halves); a
		// segment-1 trigger only its trigger-relative 2KB (half 0).
		nHalves := 2
		if seg == 1 {
			nHalves = 1
		}
		d.updateEntry(ent, prog, nHalves, bw)
	}
}

// updateEntry applies the §3.6 modulation rules to one SPT entry given an
// observed anchored program pattern.
func (d *DSPatch) updateEntry(ent *sptEntry, prog bitpattern.Pattern, nHalves int, bw bitpattern.Quartile) {
	progH := halves(prog)
	covOldH := halves(ent.covP)
	accH := halves(ent.accP)
	for h := 0; h < nHalves; h++ {
		// Goodness measurement against the patterns as they stood.
		mCov := bitpattern.Compare(covOldH[h], progH[h])
		if mCov.AccuracyQ() < d.cfg.AccThr || mCov.CoverageQ() < d.cfg.CovThr {
			ent.measureCov[h].Inc()
		} else {
			ent.measureCov[h].Dec()
		}
		mAcc := bitpattern.Compare(accH[h], progH[h])
		if mAcc.AccuracyQ() < bitpattern.Q2 {
			ent.measureAcc[h].Inc()
		} else {
			ent.measureAcc[h].Dec()
		}

		// AccP: replaced by program & stored CovP as it stood before this
		// update's OR-growth — the paper's §3.6 modulation order.
		newAcc := progH[h].And(covOldH[h])
		ent.accP = setHalf(ent.accP, newAcc, h)

		// CovP: relearn from scratch when saturatedly bad and either the
		// bandwidth is peaking or coverage collapsed; otherwise OR-grow up
		// to the OrCount cap.
		switch {
		case ent.measureCov[h].Saturated() && (bw == bitpattern.Q3 || mCov.CoverageQ() < bitpattern.Q2):
			ent.covP = setHalf(ent.covP, progH[h], h)
			ent.orCount[h].Reset()
			ent.measureCov[h].Reset()
			d.stats.PatternResets++
		case !ent.orCount[h].Saturated():
			merged := covOldH[h].Or(progH[h])
			if !merged.Equal(covOldH[h]) {
				ent.orCount[h].Inc()
			}
			ent.covP = setHalf(ent.covP, merged, h)
		}
	}
}

// predict issues prefetches for a fresh trigger (steps 3–4 of Fig. 7).
func (d *DSPatch) predict(page memaddr.Page, tr trigger, seg int, ctx prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	ent := &d.spt[tr.pcHash]
	bw := bitpattern.Q0
	if ctx != nil {
		bw = ctx.BandwidthUtilization()
	}
	d.stats.BWQuartiles[bw]++
	nHalves := 2
	if seg == 1 {
		nHalves = 1
	}
	covH := halves(ent.covP)
	accH := halves(ent.accP)
	halfW := d.patW / 2
	degreeStart := len(dst)
	for h := 0; h < nHalves; h++ {
		pat, lowPri, ok := d.selectPattern(ent, h, bw, covH[h], accH[h])
		if !ok || pat.Empty() {
			continue
		}
		if lowPri {
			d.stats.LowPriority++
		}
		if d.cfg.Compress {
			pat = pat.Expand()
		}
		// Translate anchored half-relative offsets back to page offsets:
		// anchored index i in half h is page line (trigger + h*32 + i) mod 64.
		// Walking the raw bits ascending emits the same order Offsets did,
		// without staging indices through a scratch array; base + i is
		// non-negative, so masking is exact for the mod.
		base := tr.off + h*halfW*expandFactor(d.cfg.Compress)
		for b := pat.Bits(); b != 0; b &= b - 1 {
			pageOff := (base + bits.TrailingZeros64(b)) & memaddr.OffsetMask
			if pageOff == tr.off {
				continue // the trigger line is the demand itself
			}
			dst = append(dst, prefetch.Request{Line: page.Line(pageOff), LowPriority: lowPri})
		}
	}
	d.stats.DegreeHist[degreeBucket(len(dst)-degreeStart)]++
	return dst
}

// degreeBucket maps a per-trigger request count onto DegreeHist's buckets:
// 0,1,2,3,4,5-8,9-16,17-32,33+.
func degreeBucket(n int) int {
	switch {
	case n <= 4:
		return n
	case n <= 8:
		return 5
	case n <= 16:
		return 6
	case n <= 32:
		return 7
	default:
		return 8
	}
}

func expandFactor(compress bool) int {
	if compress {
		return 2
	}
	return 1
}

// selectPattern implements the Fig. 10 selection tree (and the Fig. 19
// ablation modes) for one trigger half. It returns the chosen pattern, a
// low-priority-fill hint, and whether to prefetch at all.
func (d *DSPatch) selectPattern(ent *sptEntry, h int, bw bitpattern.Quartile, cov, acc bitpattern.Pattern) (bitpattern.Pattern, bool, bool) {
	switch d.cfg.Mode {
	case ModeAlwaysCovP:
		d.stats.PredictionsCovP++
		d.stats.SelCovPAlways++
		return cov, false, true
	case ModeModCovP:
		if bw == bitpattern.Q3 {
			d.stats.PredictionsNone++
			d.stats.SelNoneThrottle++
			return bitpattern.Pattern{}, false, false
		}
		d.stats.PredictionsCovP++
		d.stats.SelCovPAlways++
		return cov, false, true
	}
	switch {
	case bw == bitpattern.Q3:
		if ent.measureAcc[h].Saturated() {
			d.stats.PredictionsNone++
			d.stats.SelNoneQ3++
			return bitpattern.Pattern{}, false, false
		}
		d.stats.PredictionsAccP++
		d.stats.SelAccPQ3++
		return acc, false, true
	case bw == bitpattern.Q2:
		if ent.measureCov[h].Saturated() {
			d.stats.PredictionsAccP++
			d.stats.SelAccPQ2++
			return acc, false, true
		}
		d.stats.PredictionsCovP++
		d.stats.SelCovPQ2++
		return cov, false, true
	default:
		// Below 50% utilization: coverage pattern; fill at low priority if
		// its goodness counter says it has been inaccurate.
		d.stats.PredictionsCovP++
		d.stats.SelCovPLowBW++
		return cov, ent.measureCov[h].Saturated(), true
	}
}

// noteCompressionError records, for one finished page generation, the
// misprediction rate 128B compression alone would cause (Fig. 11b):
// extra lines predicted by expand(compress(P)) that P never touched,
// relative to the compressed prediction size.
func (d *DSPatch) noteCompressionError(program bitpattern.Pattern) {
	pred := program.Compress().Expand()
	extra := pred.AndNot(program).PopCount()
	total := pred.PopCount()
	if total == 0 {
		return
	}
	rate := 8 * extra / total // in eighths: 0..4 (max 50%)
	var bucket int
	switch {
	case extra == 0:
		bucket = 0
	case 2*extra == total:
		bucket = 5 // exactly 50%
	case rate < 1:
		bucket = 1 // (0, 12.5%]
	case rate < 2:
		bucket = 2 // (12.5, 25%]
	case rate < 3:
		bucket = 3 // (25, 37.5%]
	default:
		bucket = 4 // (37.5, 50%)
	}
	d.stats.CompressionHist[bucket]++
}

// Flush learns from every live PB entry, as if all pages aged out. Useful at
// the end of a simulation so short traces still train the SPT.
func (d *DSPatch) Flush(ctx prefetch.Context) {
	for i := range d.pb {
		if d.pb[i].valid {
			d.learn(&d.pb[i], ctx)
			d.pb[i].valid = false
			d.pbPages[i] = pbNoPage
		}
	}
	d.pbIdx.Reset()
	d.pbHead, d.pbTail, d.pbFree, d.pbMRU = -1, -1, 0, 0
}

// StorageBits implements prefetch.Prefetcher using the paper's Table 1
// accounting: PB entry = page(36) + pattern(64) + 2×(PC 8 + offset 6);
// SPT entry = CovP + AccP + 2×(OrCount + MeasureCovP + MeasureAccP).
func (d *DSPatch) StorageBits() int {
	pb := d.cfg.PBEntries * (36 + memaddr.LinesPage + 2*(8+6))
	per := 2*d.patW + 2*(int(d.cfg.OrCountBits)+2*int(d.cfg.MeasureBits))
	spt := d.cfg.SPTEntries * per
	return pb + spt
}

// Histogram bucket labels for ReportStats. The slices are shared read-only
// across snapshots.
var (
	bwQuartileBuckets  = []string{"q0", "q1", "q2", "q3"}
	degreeBuckets      = []string{"0", "1", "2", "3", "4", "5-8", "9-16", "17-32", "33+"}
	compressionBuckets = []string{
		"0%", "(0,12.5%]", "(12.5,25%]", "(25,37.5%]", "(37.5,50%)", "50%",
	}
)

// ReportStats implements prefetch.StatsReporter: a flat snapshot of the
// internal counters keyed by the paper's vocabulary (CovP/AccP selection
// reasons, bandwidth quartiles, trigger degree).
func (d *DSPatch) ReportStats() []prefstats.Stats {
	s := &d.stats
	st := prefstats.New(d.Name())
	st.Count("triggers", s.Triggers)
	st.Count("pb_lookups", s.PBLookups)
	st.Count("pb_hits", s.PBHits)
	st.Count("pb_evictions", s.PageEvictions)
	st.Count("pattern_resets", s.PatternResets)
	st.Count("sel_covp", s.PredictionsCovP)
	st.Count("sel_accp", s.PredictionsAccP)
	st.Count("sel_none", s.PredictionsNone)
	st.Count("sel_covp_low_bw", s.SelCovPLowBW)
	st.Count("sel_covp_q2", s.SelCovPQ2)
	st.Count("sel_accp_q2_covp_bad", s.SelAccPQ2)
	st.Count("sel_accp_q3", s.SelAccPQ3)
	st.Count("sel_none_q3_accp_bad", s.SelNoneQ3)
	st.Count("sel_covp_always", s.SelCovPAlways)
	st.Count("sel_none_q3_throttle", s.SelNoneThrottle)
	st.Count("low_priority_fills", s.LowPriority)
	st.Hist("bw_quartile", bwQuartileBuckets, s.BWQuartiles[:])
	st.Hist("prefetch_degree", degreeBuckets, s.DegreeHist[:])
	st.Hist("compression_mispred", compressionBuckets, s.CompressionHist[:])
	return []prefstats.Stats{st}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
