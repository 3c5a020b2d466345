// Package bop implements the Best Offset Prefetcher (Michaud, HPCA 2016
// [62]) with the configuration the DSPatch paper evaluates (Table 3):
// 256-entry recent-requests table, MaxRound=100, MaxScore=31, BadScore=1,
// prefetch degree 2 (single-thread) or 1 (multi-programmed).
//
// BOP learns a single best "global" delta: in each learning round every
// tested offset d scores a point when an access to line X finds X-d in the
// recent-requests (RR) table — i.e. a prefetch at offset d issued on X-d
// would have covered X. The eBOP variant (DSPatch paper §2.2) raises the
// prefetch degree to 2 and 4 when at least 25% and 50% of the DRAM bandwidth
// is unused.
package bop

import (
	"dspatch/internal/bitpattern"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
	"dspatch/internal/prefstats"
)

// Config sizes BOP.
type Config struct {
	RREntries int
	MaxRound  int
	MaxScore  int
	BadScore  int
	Degree    int
	// Adaptive enables eBOP's bandwidth-aware degree boost.
	Adaptive bool
}

// DefaultConfig returns the paper's single-thread BOP configuration.
func DefaultConfig() Config {
	return Config{RREntries: 256, MaxRound: 100, MaxScore: 31, BadScore: 1, Degree: 2}
}

// EnhancedConfig returns eBOP.
func EnhancedConfig() Config {
	c := DefaultConfig()
	c.Degree = 1
	c.Adaptive = true
	return c
}

// offsetList is the set of candidate global deltas. Within a 4KB page the
// useful range is ±63 lines; following Michaud we test a factored subset in
// both directions.
var offsetList = buildOffsets()

func buildOffsets() []int {
	base := []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60, 63}
	out := make([]int, 0, 2*len(base))
	for _, d := range base {
		out = append(out, d, -d)
	}
	return out
}

// BOP is one core's Best Offset prefetcher.
type BOP struct {
	cfg Config

	rr    []memaddr.Line
	rrSet []bool

	scores  []int
	testIdx int
	round   int
	bestOff int  // selected global delta; 0 while prefetching is off
	active  bool // prefetching enabled (best score exceeded BadScore)

	// Telemetry: plain hot-path counters, snapshotted by ReportStats.
	statTrains     uint64    // training events (misses + prefetched hits)
	statAdoptions  uint64    // learning phases ended with an active offset
	statDeactivate uint64    // learning phases ended below BadScore (prefetch off)
	statIssued     uint64    // prefetch requests emitted
	statDegreeHist [5]uint64 // requests emitted per active train: 0..4
}

// New builds a BOP instance.
func New(cfg Config) *BOP {
	if cfg.RREntries&(cfg.RREntries-1) != 0 {
		panic("bop: RR entries must be a power of two")
	}
	return &BOP{
		cfg:    cfg,
		rr:     make([]memaddr.Line, cfg.RREntries),
		rrSet:  make([]bool, cfg.RREntries),
		scores: make([]int, len(offsetList)),
	}
}

// Name implements prefetch.Prefetcher.
func (b *BOP) Name() string {
	if b.cfg.Adaptive {
		return "ebop"
	}
	return "bop"
}

func (b *BOP) rrInsert(l memaddr.Line) {
	idx := uint64(l) & uint64(b.cfg.RREntries-1)
	b.rr[idx] = l
	b.rrSet[idx] = true
}

func (b *BOP) rrContains(l memaddr.Line) bool {
	idx := uint64(l) & uint64(b.cfg.RREntries-1)
	return b.rrSet[idx] && b.rr[idx] == l
}

// degree returns the active prefetch degree, applying eBOP's bandwidth
// adaptation: headroom > 25% → degree 2, headroom > 50% → degree 4.
func (b *BOP) degree(ctx prefetch.Context) int {
	if !b.cfg.Adaptive || ctx == nil {
		return b.cfg.Degree
	}
	switch ctx.BandwidthUtilization() {
	case bitpattern.Q0, bitpattern.Q1: // utilization < 50% → headroom > 50%
		return 4
	case bitpattern.Q2: // utilization < 75% → headroom > 25%
		return 2
	default:
		return b.cfg.Degree
	}
}

// Train implements prefetch.Prefetcher. BOP trains on L2 misses and on
// demand hits to prefetched lines, per the original proposal.
func (b *BOP) Train(a prefetch.Access, ctx prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	if a.Hit && !a.HitPrefetched {
		return dst
	}
	b.statTrains++
	x := a.Line
	page := x.Page()

	// Learning: test the next offset in the round-robin schedule.
	d := offsetList[b.testIdx]
	cand := int64(x) - int64(d)
	if cand >= 0 && memaddr.Line(cand).Page() == page && b.rrContains(memaddr.Line(cand)) {
		b.scores[b.testIdx]++
		if b.scores[b.testIdx] >= b.cfg.MaxScore {
			b.adopt(b.testIdx)
		}
	}
	b.testIdx++
	if b.testIdx == len(offsetList) {
		b.testIdx = 0
		b.round++
		if b.round >= b.cfg.MaxRound {
			b.adoptBest()
		}
	}

	b.rrInsert(x)

	// Prediction: issue degree prefetches at multiples of the best offset.
	if !b.active || b.bestOff == 0 {
		return dst
	}
	deg := b.degree(ctx)
	emitted := 0
	for i := 1; i <= deg; i++ {
		t := int64(x) + int64(i*b.bestOff)
		if t < 0 || memaddr.Line(t).Page() != page {
			break
		}
		dst = append(dst, prefetch.Request{Line: memaddr.Line(t)})
		emitted++
	}
	b.statIssued += uint64(emitted)
	b.statDegreeHist[emitted]++
	return dst
}

// adopt ends the learning phase immediately because offset i hit MaxScore.
func (b *BOP) adopt(i int) {
	b.statAdoptions++
	b.bestOff = offsetList[i]
	b.active = true
	b.resetLearning()
}

// adoptBest ends the learning phase after MaxRound rounds.
func (b *BOP) adoptBest() {
	best, bestScore := 0, -1
	for i, s := range b.scores {
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	if bestScore <= b.cfg.BadScore {
		b.statDeactivate++
		b.active = false
		b.bestOff = 0
	} else {
		b.statAdoptions++
		b.active = true
		b.bestOff = offsetList[best]
	}
	b.resetLearning()
}

func (b *BOP) resetLearning() {
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.testIdx = 0
	b.round = 0
}

// bopDegreeBuckets labels statDegreeHist: eBOP's adaptive degree tops out
// at 4.
var bopDegreeBuckets = []string{"0", "1", "2", "3", "4"}

// ReportStats implements prefetch.StatsReporter.
func (b *BOP) ReportStats() []prefstats.Stats {
	st := prefstats.New(b.Name())
	st.Count("trains", b.statTrains)
	st.Count("adoptions", b.statAdoptions)
	st.Count("deactivations", b.statDeactivate)
	st.Count("issued", b.statIssued)
	st.Hist("prefetch_degree", bopDegreeBuckets, b.statDegreeHist[:])
	return []prefstats.Stats{st}
}

// StorageBits implements prefetch.Prefetcher: RR entries hold a line tag
// (we account 36 bits of line address each, 1.3KB total per Table 3's
// ballpark) plus per-offset 5-bit scores.
func (b *BOP) StorageBits() int {
	return b.cfg.RREntries*36 + len(offsetList)*5 + 16
}
