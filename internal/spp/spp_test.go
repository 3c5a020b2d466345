package spp

import (
	"testing"

	"dspatch/internal/bitpattern"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
)

func miss(line uint64) prefetch.Access {
	return prefetch.Access{PC: 0x400, Line: memaddr.Line(line)}
}

// trainPages streams a repeating delta series over several pages so the
// pattern table accumulates confidence.
func trainPages(s *SPP, deltas []int, pages int) []prefetch.Request {
	var out []prefetch.Request
	for p := 0; p < pages; p++ {
		base := uint64(p * memaddr.LinesPage)
		off := 0
		out = s.Train(miss(base), nil, nil)
		for i := 0; i < 12; i++ {
			off += deltas[i%len(deltas)]
			if off >= memaddr.LinesPage {
				break
			}
			out = s.Train(miss(base+uint64(off)), nil, nil)
		}
	}
	return out
}

func TestEncodeDelta(t *testing.T) {
	tests := []struct {
		d    int
		want uint16
	}{
		{1, 1},
		{63, 63},
		{-1, 0x41},
		{-63, 0x7f},
	}
	for _, tt := range tests {
		if got := encodeDelta(tt.d); got != tt.want {
			t.Errorf("encodeDelta(%d) = %#x, want %#x", tt.d, got, tt.want)
		}
	}
	if encodeDelta(1) == encodeDelta(-1) {
		t.Error("+1 and -1 must encode differently")
	}
}

func TestSignatureUpdateDistinguishesPaths(t *testing.T) {
	s := New(DefaultConfig())
	a := s.updateSig(s.updateSig(0, 1), 2)
	b := s.updateSig(s.updateSig(0, 2), 1)
	if a == b {
		t.Error("delta order should yield different signatures")
	}
	if a >= 1<<12 || b >= 1<<12 {
		t.Error("signature exceeds 12 bits")
	}
}

func TestLearnsUnitStride(t *testing.T) {
	s := New(DefaultConfig())
	out := trainPages(s, []int{1}, 30)
	if len(out) == 0 {
		t.Fatal("no prefetches for a unit-stride stream")
	}
}

func TestLookaheadDepth(t *testing.T) {
	// With a perfectly confident stride, lookahead runs ahead of the demand
	// stream: one access's prediction set reaches multiple lines ahead.
	// (Later accesses may emit fewer because the duplicate filter already
	// holds the lookahead's candidates — assert on the union.)
	s := New(DefaultConfig())
	trainPages(s, []int{1}, 40)
	base := uint64(1000 * memaddr.LinesPage)
	issued := map[memaddr.Line]bool{}
	for off := uint64(0); off < 4; off++ {
		for _, r := range s.Train(miss(base+off), nil, nil) {
			if r.Line.Page() != memaddr.Page(1000) {
				t.Errorf("prefetch %d left the page", r.Line)
			}
			issued[r.Line] = true
		}
	}
	if len(issued) < 3 {
		t.Errorf("lookahead issued %d distinct candidates, want >= 3", len(issued))
	}
	// The candidates must run ahead of the last demand (base+3).
	ahead := false
	for l := range issued {
		if l > memaddr.Line(base+4) {
			ahead = true
		}
	}
	if !ahead {
		t.Errorf("no candidate beyond the demand stream: %v", issued)
	}
}

func TestLearnsComplexDeltaSeries(t *testing.T) {
	s := New(DefaultConfig())
	trainPages(s, []int{1, 2}, 60)
	base := uint64(2000 * memaddr.LinesPage)
	issued := map[memaddr.Line]bool{}
	for _, off := range []uint64{0, 1, 3} {
		for _, r := range s.Train(miss(base+off), nil, nil) {
			issued[r.Line] = true
		}
	}
	// The 1,2 series visits offsets 4 and 6 next; lookahead should have
	// issued at least one of them.
	if !issued[memaddr.Line(base+4)] && !issued[memaddr.Line(base+6)] {
		t.Errorf("did not predict the 1,2 series continuation: %v", issued)
	}
}

func TestNoPrefetchWithoutHistory(t *testing.T) {
	s := New(DefaultConfig())
	out := s.Train(miss(0), nil, nil)
	if len(out) != 0 {
		t.Errorf("cold start should not prefetch, got %v", out)
	}
}

func TestFilterSuppressesDuplicates(t *testing.T) {
	s := New(DefaultConfig())
	trainPages(s, []int{1}, 40)
	base := uint64(3000 * memaddr.LinesPage)
	s.Train(miss(base), nil, nil)
	a := s.Train(miss(base+1), nil, nil)
	b := s.Train(miss(base+1), nil, nil) // same access again: delta 0
	_ = a
	if len(b) != 0 {
		t.Errorf("duplicate access re-issued prefetches: %v", b)
	}
}

func TestESPPThresholdAdapts(t *testing.T) {
	e := New(EnhancedConfig())
	lo := prefetch.StaticContext{Util: bitpattern.Q0}
	hi := prefetch.StaticContext{Util: bitpattern.Q3}
	if e.threshold(lo) != 12 {
		t.Errorf("low-BW threshold = %d, want 12", e.threshold(lo))
	}
	if e.threshold(hi) != 25 {
		t.Errorf("high-BW threshold = %d, want 25", e.threshold(hi))
	}
	s := New(DefaultConfig())
	if s.threshold(lo) != 25 {
		t.Errorf("plain SPP threshold should not adapt, got %d", s.threshold(lo))
	}
}

func TestESPPMoreAggressiveAtLowBW(t *testing.T) {
	run := func(cfg Config, util bitpattern.Quartile) int {
		s := New(cfg)
		ctx := prefetch.StaticContext{Util: util}
		total := 0
		for p := 0; p < 60; p++ {
			base := uint64(p * memaddr.LinesPage)
			// Noisy stride: mostly +2, sometimes +3 → moderate confidence.
			off := 0
			s.Train(prefetch.Access{PC: 1, Line: memaddr.Line(base)}, ctx, nil)
			for i := 0; i < 14; i++ {
				if i%4 == 3 {
					off += 3
				} else {
					off += 2
				}
				if off >= memaddr.LinesPage {
					break
				}
				out := s.Train(prefetch.Access{PC: 1, Line: memaddr.Line(base + uint64(off))}, ctx, nil)
				total += len(out)
			}
		}
		return total
	}
	plain := run(DefaultConfig(), bitpattern.Q0)
	enhanced := run(EnhancedConfig(), bitpattern.Q0)
	if enhanced <= plain {
		t.Errorf("eSPP at low BW issued %d <= SPP %d", enhanced, plain)
	}
}

func TestAccuracyFeedback(t *testing.T) {
	s := New(DefaultConfig())
	if s.accuracyPct() != 100 {
		t.Error("cold accuracy should be optimistic")
	}
	// Issue many prefetches that are never used.
	for i := 0; i < 100; i++ {
		s.issue(memaddr.Line(100000+i*7), nil)
	}
	if s.accuracyPct() != 50 {
		t.Errorf("all-useless accuracy = %d, want floor 50", s.accuracyPct())
	}
}

func TestGHRCrossPage(t *testing.T) {
	s := New(DefaultConfig())
	// Stream that runs off the end of pages repeatedly.
	for p := 0; p < 50; p++ {
		base := uint64(p * memaddr.LinesPage)
		for off := 56; off < 64; off++ {
			s.Train(miss(base+uint64(off)), nil, nil)
		}
	}
	hasGHR := false
	for _, g := range s.ghr {
		if g.valid {
			hasGHR = true
		}
	}
	if !hasGHR {
		t.Error("streams leaving pages should populate the GHR")
	}
}

func TestStorageBits(t *testing.T) {
	s := New(DefaultConfig())
	kb := float64(s.StorageBits()) / 8192
	// Our accounting lands near 4.3KB; the paper quotes 6.2KB with its own
	// bookkeeping. Accept the plausible band.
	if kb < 3 || kb > 8 {
		t.Errorf("SPP storage = %.2fKB, outside plausible band", kb)
	}
}

func TestNames(t *testing.T) {
	if New(DefaultConfig()).Name() != "spp" {
		t.Error("wrong name for SPP")
	}
	if New(EnhancedConfig()).Name() != "espp" {
		t.Error("wrong name for eSPP")
	}
}

// TestConfidenceTableExact checks the precomputed delta-confidence table the
// lookahead reads instead of dividing: for every reachable counter pair —
// cSig in [1, CounterMax], cDelta in [0, cSig] — the entry must equal the
// integer quotient 100*cDelta/cSig exactly.
func TestConfidenceTableExact(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), EnhancedConfig()} {
		s := New(cfg)
		if s.confSpan != cfg.CounterMax+1 {
			t.Fatalf("confSpan = %d, want CounterMax+1 = %d", s.confSpan, cfg.CounterMax+1)
		}
		for cSig := 1; cSig <= cfg.CounterMax; cSig++ {
			for cDelta := 0; cDelta <= cSig; cDelta++ {
				if got, want := int(s.confTab[cSig*s.confSpan+cDelta]), 100*cDelta/cSig; got != want {
					t.Errorf("%s: confTab[%d,%d] = %d, want %d", s.Name(), cSig, cDelta, got, want)
				}
			}
		}
	}
}
