// Package trace generates the synthetic memory access streams that stand in
// for the paper's 75 proprietary workload traces (SPEC CPU2006/2017, Client,
// Server, HPC, Cloud, SYSmark — the repository README's experiment index
// explains the substitution argument).
//
// Each generator reproduces the access-pattern property the paper attributes
// to its suite: dense regular strides and delta series (HPC, FSPEC),
// recurring spatial footprints shuffled by out-of-order execution and keyed
// by large code footprints (Cloud, SYSmark, ISPEC17, TPC-C), sparse
// pointer-chasing (ISPEC06 mcf), and mixtures thereof. Generators are
// deterministic functions of their seed.
package trace

import (
	"math/rand"

	"dspatch/internal/memaddr"
)

// Ref is one memory reference of a trace.
type Ref struct {
	PC    memaddr.PC
	Line  memaddr.Line
	Write bool
	// Gap is the number of non-memory instructions preceding this
	// reference; it sets the workload's memory intensity.
	Gap int
	// Dep marks the reference's address as dependent on the previous load
	// (pointer chasing, loop-carried indices). Dependent loads serialize in
	// the core and bound memory-level parallelism.
	Dep bool
}

// Generator produces an infinite reference stream; the simulator bounds it.
type Generator interface {
	Next(r *Ref)
}

// gapper draws instruction gaps around a mean (uniform in [mean/2, 3mean/2]).
type gapper struct {
	rng  *rand.Rand
	mean int
}

func (g gapper) gap() int {
	if g.mean <= 1 {
		return 1
	}
	return g.mean/2 + g.rng.Intn(g.mean)
}

// StreamConfig parameterizes a multi-stream sequential generator.
type StreamConfig struct {
	Streams   int     `json:"streams"`      // concurrent streams
	StrideLns int     `json:"stride_lines"` // lines per step (1 = next line)
	PagePool  int     `json:"page_pool"`    // distinct pages the streams wander across
	MeanGap   int     `json:"mean_gap"`
	WriteFrac float64 `json:"write_frac,omitempty"`
	// PCCount is the number of distinct load PCs driving the streams. When
	// smaller than Streams (indirect or merged access patterns), a PC-based
	// stride prefetcher sees interleaved streams and loses confidence, while
	// page-local prefetchers (SPP) are unaffected. 0 means one PC per stream.
	PCCount    int `json:"pc_count,omitempty"`
	RestartPct int `json:"restart_pct,omitempty"` // chance (percent) per step that a stream jumps elsewhere
	// DepPct is the percentage of references carrying an address dependence
	// on the previous load (0 = fully independent index streams).
	DepPct int `json:"dep_pct,omitempty"`
}

type streamState struct {
	line memaddr.Line
	pc   memaddr.PC
}

type streamGen struct {
	cfg     StreamConfig
	rng     *rand.Rand
	g       gapper
	streams []streamState
}

// NewStream builds a streaming generator: k independent sequential streams
// (HPC, FSPEC kernels, memcpy-style client work).
func NewStream(cfg StreamConfig, seed int64) Generator {
	rng := rand.New(rand.NewSource(seed))
	s := &streamGen{cfg: cfg, rng: rng, g: gapper{rng, cfg.MeanGap}}
	s.streams = make([]streamState, 0, cfg.Streams)
	pcs := cfg.PCCount
	if pcs <= 0 {
		pcs = cfg.Streams
	}
	for i := 0; i < cfg.Streams; i++ {
		s.streams = append(s.streams, streamState{
			line: memaddr.Line(rng.Intn(cfg.PagePool)) * memaddr.LinesPage,
			pc:   memaddr.PC(0x400000 + (i%pcs)*4),
		})
	}
	return s
}

func (s *streamGen) Next(r *Ref) {
	i := s.rng.Intn(len(s.streams))
	st := &s.streams[i]
	if s.cfg.RestartPct > 0 && s.rng.Intn(100) < s.cfg.RestartPct {
		st.line = memaddr.Line(s.rng.Intn(s.cfg.PagePool)) * memaddr.LinesPage
	}
	st.line += memaddr.Line(s.cfg.StrideLns)
	r.PC = st.pc
	r.Line = st.line
	r.Write = s.rng.Float64() < s.cfg.WriteFrac
	r.Gap = s.g.gap()
	r.Dep = s.rng.Intn(100) < s.cfg.DepPct
}

// DeltaSeriesConfig parameterizes a repeating in-page delta series — the
// pattern family BOP's global deltas capture best (e.g. local deltas
// 1,2,1,2 → global delta 3).
type DeltaSeriesConfig struct {
	Deltas    []int   `json:"deltas"`
	PagePool  int     `json:"page_pool"`
	MeanGap   int     `json:"mean_gap"`
	WriteFrac float64 `json:"write_frac,omitempty"`
	DepPct    int     `json:"dep_pct,omitempty"`
}

type deltaGen struct {
	cfg  DeltaSeriesConfig
	rng  *rand.Rand
	g    gapper
	page memaddr.Page
	off  int
	step int
	pc   memaddr.PC
}

// NewDeltaSeries builds a repeating-delta generator.
func NewDeltaSeries(cfg DeltaSeriesConfig, seed int64) Generator {
	rng := rand.New(rand.NewSource(seed))
	return &deltaGen{cfg: cfg, rng: rng, g: gapper{rng, cfg.MeanGap}, pc: 0x500000, off: -1}
}

func (d *deltaGen) Next(r *Ref) {
	if d.off < 0 || d.off >= memaddr.LinesPage {
		d.page = memaddr.Page(d.rng.Intn(d.cfg.PagePool))
		d.off = d.rng.Intn(4)
		d.step = 0
	} else {
		d.off += d.cfg.Deltas[d.step%len(d.cfg.Deltas)]
		d.step++
		if d.off < 0 || d.off >= memaddr.LinesPage {
			d.page = memaddr.Page(d.rng.Intn(d.cfg.PagePool))
			d.off = d.rng.Intn(4)
			d.step = 0
		}
	}
	r.PC = d.pc
	r.Line = d.page.Line(d.off)
	r.Write = d.rng.Float64() < d.cfg.WriteFrac
	r.Gap = d.g.gap()
	r.Dep = d.rng.Intn(100) < d.cfg.DepPct
}

// SpatialConfig parameterizes the recurring-footprint generator: the
// workload family where spatial bit-pattern prefetchers (SMS, DSPatch) beat
// delta prefetchers.
type SpatialConfig struct {
	Patterns  int     `json:"patterns"`             // distinct footprints ≈ code footprint (trigger PCs)
	Density   int     `json:"density"`              // lines per footprint
	Reorder   int     `json:"reorder,omitempty"`    // shuffle window ≈ OoO reordering depth (0 = in order)
	JitterPct int     `json:"jitter_pct,omitempty"` // chance a footprint line is dropped / an extra added
	PagePool  int     `json:"page_pool"`            // pages being revisited
	MeanGap   int     `json:"mean_gap"`
	WriteFrac float64 `json:"write_frac,omitempty"`
	DepPct    int     `json:"dep_pct,omitempty"` // body-access dependence percentage (triggers always depend)
	// TriggerVarPct is the chance that out-of-order execution makes some
	// line other than the footprint's canonical head the temporally first
	// access of a visit (the paper's Fig. 2 reordering effect). Bit-pattern
	// prefetchers keyed on raw (PC, offset) signatures fragment under this;
	// DSPatch's trigger-anchored rotation absorbs it.
	TriggerVarPct int `json:"trigger_var_pct,omitempty"`
	// Placements is how many distinct in-page base offsets each footprint
	// recurs at (heap objects land wherever the allocator put them). Raw
	// (PC, offset) signatures fragment across placements; trigger-anchored
	// patterns collapse them into one. 0 or 1 pins footprints in place.
	Placements int  `json:"placements,omitempty"`
	Segment1   bool `json:"segment1,omitempty"` // footprints may live in the upper 2KB too
}

type spatialGen struct {
	cfg    SpatialConfig
	rng    *rand.Rand
	g      gapper
	foot   [][]int // per pattern: relative line offsets, [0] is the head
	places [][]int // per pattern: base offsets the footprint recurs at
	pc0    memaddr.PC
	queue  []int // index order of the current visit's footprint lines
	page   memaddr.Page
	pat    int
	base   int // current visit's placement base
	qi     int
}

// NewSpatial builds a recurring-footprint generator.
func NewSpatial(cfg SpatialConfig, seed int64) Generator {
	rng := rand.New(rand.NewSource(seed))
	s := &spatialGen{cfg: cfg, rng: rng, g: gapper{rng, cfg.MeanGap}, pc0: 0x600000}
	lim := memaddr.LinesSeg
	if cfg.Segment1 {
		lim = memaddr.LinesPage
	}
	// All footprints and placement lists live in two shared slabs. Code-heavy
	// workloads build thousands of patterns per generator; per-pattern slices
	// made generator construction ~0.4 heap objects per simulated reference
	// on the tpcc family.
	maxDensity := max(cfg.Density, 1)
	nPlace := max(cfg.Placements, 1)
	footSlab := make([]int, cfg.Patterns*maxDensity)
	placeSlab := make([]int, cfg.Patterns*nPlace)
	s.foot = make([][]int, 0, cfg.Patterns)
	s.places = make([][]int, 0, cfg.Patterns)
	for p := 0; p < cfg.Patterns; p++ {
		// Footprints are generated relative to their head line (offset 0)
		// within a span of about a third of the region, leaving room for
		// placement variation and keeping most visits inside one 2KB
		// segment (real spatial footprints are object-sized).
		span := lim / 3
		foot := append(footSlab[p*maxDensity:p*maxDensity:(p+1)*maxDensity], 0)
		// seen is indexed by in-span offset (< LinesPage); an array keeps
		// workload construction allocation-free — building 75 generators per
		// figure was 96% of the simulator's allocation count as maps.
		var seen [memaddr.LinesPage]bool
		seen[0] = true
		// Real spatial footprints cluster: most deltas are ±1 (paper
		// Fig. 11a), and structures are allocator-aligned, so build the
		// footprint from short 128B-aligned runs (even start offsets) with
		// pair-lengths dominating — which is also what makes the paper's
		// 128B-granularity compression cheap (Fig. 11b).
		density := cfg.Density
		if density > span {
			density = span // a footprint cannot exceed its span
		}
		for len(foot) < density {
			start := 2 * rng.Intn(span/2)
			runLen := 2
			switch r := rng.Intn(100); {
			case r < 15:
				runLen = 1
			case r < 30:
				runLen = 3
			case r < 45:
				runLen = 4
			}
			for k := 0; k < runLen && len(foot) < density; k++ {
				o := start + k
				if o >= span {
					break
				}
				if seen[o] {
					continue // extend the run past already-chosen lines
				}
				seen[o] = true
				foot = append(foot, o)
			}
		}
		s.foot = append(s.foot, foot)
		// Placements are 128B-aligned (allocators align sizable objects)
		// and segment-contained, so a footprint recurs at varying bases
		// without straddling the 2KB boundary or flipping the compression
		// pairing.
		places := placeSlab[p*nPlace : (p+1)*nPlace]
		for i := 1; i < nPlace; i++ {
			seg := 0
			if cfg.Segment1 {
				seg = rng.Intn(2)
			}
			room := (memaddr.LinesSeg - span) / 2
			if room < 1 {
				room = 1
			}
			places[i] = seg*memaddr.LinesSeg + 2*rng.Intn(room)
		}
		s.places = append(s.places, places)
	}
	return s
}

func (s *spatialGen) startVisit() {
	s.pat = s.rng.Intn(len(s.foot))
	s.page = memaddr.Page(s.rng.Intn(s.cfg.PagePool))
	s.base = s.places[s.pat][s.rng.Intn(len(s.places[s.pat]))]
	base := s.foot[s.pat]
	// Emit footprint-line indices (so each access keeps its per-line PC).
	s.queue = s.queue[:0]
	for i := range base {
		if i > 0 && s.cfg.JitterPct > 0 && s.rng.Intn(100) < s.cfg.JitterPct {
			continue // dropped line this generation
		}
		s.queue = append(s.queue, i)
	}
	// Out-of-order trigger variation: sometimes a non-head line lands first.
	if s.cfg.TriggerVarPct > 0 && len(s.queue) > 1 && s.rng.Intn(100) < s.cfg.TriggerVarPct {
		j := 1 + s.rng.Intn(min(3, len(s.queue)-1))
		s.queue[0], s.queue[j] = s.queue[j], s.queue[0]
	}
	// Bounded shuffle of the body within the reorder window.
	w := s.cfg.Reorder
	if w > 1 {
		for i := 1; i < len(s.queue); i++ {
			j := i + s.rng.Intn(min(w, len(s.queue)-i))
			s.queue[i], s.queue[j] = s.queue[j], s.queue[i]
		}
	}
	s.qi = 0
}

func (s *spatialGen) Next(r *Ref) {
	if s.qi >= len(s.queue) {
		s.startVisit()
	}
	idx := s.queue[s.qi]
	isFirst := s.qi == 0
	s.qi++
	var off int
	if idx < 0 {
		// Spurious extra access from a scratch PC.
		off = -1 - idx
		r.PC = s.pc0 + memaddr.PC(900000)
		r.Dep = s.rng.Intn(100) < s.cfg.DepPct
	} else {
		off = (s.base + s.foot[s.pat][idx]) % memaddr.LinesPage
		// Every footprint line has its own static PC, so whichever line the
		// reordered visit touches first provides a stable trigger signature.
		r.PC = s.pc0 + memaddr.PC((s.pat*64+idx)*4)
		if isFirst {
			// The visit's first access comes from freshly computed pointers
			// and serializes against preceding work.
			r.Dep = true
		} else {
			r.Dep = s.rng.Intn(100) < s.cfg.DepPct
		}
	}
	r.Line = s.page.Line(off)
	r.Write = s.rng.Float64() < s.cfg.WriteFrac
	r.Gap = s.g.gap()
}

// ChaseConfig parameterizes pointer-chasing: near-random lines, few accesses
// per page — the prefetch-hostile tail (mcf, omnetpp).
type ChaseConfig struct {
	FootprintPages int     `json:"footprint_pages"`
	PerPage        int     `json:"per_page"` // accesses per visited page (1–3)
	MeanGap        int     `json:"mean_gap"`
	WriteFrac      float64 `json:"write_frac,omitempty"`
}

type chaseGen struct {
	cfg  ChaseConfig
	rng  *rand.Rand
	g    gapper
	page memaddr.Page
	left int
}

// NewChase builds a pointer-chasing generator.
func NewChase(cfg ChaseConfig, seed int64) Generator {
	rng := rand.New(rand.NewSource(seed))
	return &chaseGen{cfg: cfg, rng: rng, g: gapper{rng, cfg.MeanGap}}
}

func (c *chaseGen) Next(r *Ref) {
	if c.left == 0 {
		c.page = memaddr.Page(c.rng.Intn(c.cfg.FootprintPages))
		c.left = 1 + c.rng.Intn(c.cfg.PerPage)
	}
	c.left--
	r.PC = memaddr.PC(0x700000 + c.rng.Intn(8)*4)
	r.Line = c.page.Line(c.rng.Intn(memaddr.LinesPage))
	r.Write = c.rng.Float64() < c.cfg.WriteFrac
	r.Gap = c.g.gap()
	r.Dep = true // pointer chasing serializes by definition
}

// Mix interleaves generators with the given weights.
type mixGen struct {
	rng     *rand.Rand
	gens    []Generator
	weights []int
	total   int
}

// NewMix builds a weighted interleaving of sub-generators.
func NewMix(seed int64, gens []Generator, weights []int) Generator {
	if len(gens) != len(weights) || len(gens) == 0 {
		panic("trace: mix needs matching generators and weights")
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	return &mixGen{rng: rand.New(rand.NewSource(seed)), gens: gens, weights: weights, total: total}
}

// mixRegionLines separates mix components in the address space: distinct
// data structures live at distinct addresses, so one component's pages never
// alias another's.
const mixRegionLines = 1 << 28 // 16GB per component

func (m *mixGen) Next(r *Ref) {
	t := m.rng.Intn(m.total)
	for i, w := range m.weights {
		if t < w {
			m.gens[i].Next(r)
			r.Line += memaddr.Line(uint64(i) * mixRegionLines)
			return
		}
		t -= w
	}
	last := len(m.gens) - 1
	m.gens[last].Next(r)
	r.Line += memaddr.Line(uint64(last) * mixRegionLines)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
