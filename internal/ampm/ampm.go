// Package ampm implements Access Map Pattern Matching (Ishii et al., ICS
// 2009 [43]). The DSPatch paper evaluates AMPM but omits its results because
// it underperforms the other prefetchers in single-thread runs (§4.1); we
// include it for completeness and for the same comparison.
//
// AMPM keeps a per-page access bitmap and, on every access at offset o,
// searches for strides s such that both o-s and o-2s were accessed; each
// such stride predicts o+s.
package ampm

import (
	"dspatch/internal/idx"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
	"dspatch/internal/prefstats"
)

// Config sizes AMPM.
type Config struct {
	Maps      int // concurrently tracked pages
	MaxStride int // largest stride considered
	Degree    int // max prefetches per access
}

// DefaultConfig returns a 64-page AMPM comparable to the other prefetchers'
// budgets.
func DefaultConfig() Config { return Config{Maps: 64, MaxStride: 16, Degree: 2} }

type mapEntry struct {
	page       memaddr.Page
	accessed   uint64 // bit per line: demanded
	prefetched uint64 // bit per line: prefetch issued
	valid      bool
	used       uint64
}

// AMPM is one core's access-map prefetcher.
type AMPM struct {
	cfg   Config
	maps  []mapEntry
	clock uint64

	// mapIdx maps live page numbers to their map slots for the O(1) per-train
	// lookup.
	mapIdx *idx.Table

	// Telemetry: plain hot-path counters, snapshotted by ReportStats.
	statAllocs uint64 // access maps (re)allocated
	statEvicts uint64 // valid maps evicted to make room
	statIssued uint64 // prefetch requests emitted
}

// New builds an AMPM instance.
func New(cfg Config) *AMPM {
	return &AMPM{cfg: cfg, maps: make([]mapEntry, cfg.Maps), mapIdx: idx.New(cfg.Maps)}
}

// Name implements prefetch.Prefetcher.
func (a *AMPM) Name() string { return "ampm" }

// Train implements prefetch.Prefetcher.
func (a *AMPM) Train(acc prefetch.Access, _ prefetch.Context, dst []prefetch.Request) []prefetch.Request {
	a.clock++
	page := acc.Line.Page()
	off := acc.Line.PageOffset()

	e := a.lookup(page)
	if e == nil {
		e = a.alloc(page)
	}
	e.accessed |= 1 << uint(off)
	e.used = a.clock

	issued := 0
	for s := 1; s <= a.cfg.MaxStride && issued < a.cfg.Degree; s++ {
		for _, dir := range [2]int{1, -1} {
			t := off + dir*s
			b1, b2 := off-dir*s, off-2*dir*s
			if t < 0 || t >= memaddr.LinesPage || b1 < 0 || b1 >= memaddr.LinesPage || b2 < 0 || b2 >= memaddr.LinesPage {
				continue
			}
			if e.accessed&(1<<uint(b1)) == 0 || e.accessed&(1<<uint(b2)) == 0 {
				continue
			}
			bit := uint64(1) << uint(t)
			if e.accessed&bit != 0 || e.prefetched&bit != 0 {
				continue
			}
			e.prefetched |= bit
			a.statIssued++
			dst = append(dst, prefetch.Request{Line: page.Line(t)})
			issued++
			if issued >= a.cfg.Degree {
				break
			}
		}
	}
	return dst
}

func (a *AMPM) lookup(page memaddr.Page) *mapEntry {
	if i, ok := a.mapIdx.Get(uint64(page)); ok {
		return &a.maps[i]
	}
	return nil
}

func (a *AMPM) alloc(page memaddr.Page) *mapEntry {
	a.statAllocs++
	victim := 0
	oldest := ^uint64(0)
	for i := range a.maps {
		if !a.maps[i].valid {
			victim = i
			break
		}
		if a.maps[i].used < oldest {
			oldest, victim = a.maps[i].used, i
		}
	}
	if a.maps[victim].valid {
		a.statEvicts++
		a.mapIdx.Del(uint64(a.maps[victim].page))
	}
	a.maps[victim] = mapEntry{page: page, valid: true, used: a.clock}
	a.mapIdx.Put(uint64(page), victim)
	return &a.maps[victim]
}

// ReportStats implements prefetch.StatsReporter.
func (a *AMPM) ReportStats() []prefstats.Stats {
	st := prefstats.New(a.Name())
	st.Count("trains", a.clock)
	st.Count("map_allocs", a.statAllocs)
	st.Count("map_evictions", a.statEvicts)
	st.Count("issued", a.statIssued)
	return []prefstats.Stats{st}
}

// StorageBits implements prefetch.Prefetcher: page tag(36) + 2×64b maps per
// entry.
func (a *AMPM) StorageBits() int { return a.cfg.Maps * (36 + 128) }
