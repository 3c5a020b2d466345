package bop

import (
	"testing"

	"dspatch/internal/bitpattern"
	"dspatch/internal/memaddr"
	"dspatch/internal/prefetch"
)

func miss(line uint64) prefetch.Access {
	return prefetch.Access{Line: memaddr.Line(line), Hit: false}
}

func TestOffsetListSymmetric(t *testing.T) {
	pos, neg := 0, 0
	for _, d := range offsetList {
		if d > 0 {
			pos++
		} else if d < 0 {
			neg++
		} else {
			t.Fatal("offset 0 in list")
		}
		if d > 63 || d < -63 {
			t.Errorf("offset %d outside the ±63 in-page range", d)
		}
	}
	if pos != neg {
		t.Errorf("offset list asymmetric: %d positive, %d negative", pos, neg)
	}
}

func TestLearnsGlobalDelta(t *testing.T) {
	b := New(DefaultConfig())
	// Local deltas 1,2,1,2... within a page: BOP should discover the global
	// delta 3 (or a multiple).
	line := uint64(0)
	var out []prefetch.Request
	for i := 0; i < 20000; i++ {
		if i%2 == 0 {
			line++
		} else {
			line += 2
		}
		if memaddr.Line(line).PageOffset() > 60 {
			line = uint64((memaddr.Line(line).Page() + 1)) * memaddr.LinesPage
		}
		out = b.Train(miss(line), nil, nil)
	}
	best := b.bestOff
	if best == 0 || best%3 != 0 {
		t.Errorf("best offset = %d, want a multiple of 3", best)
	}
	if len(out) == 0 {
		t.Error("converged BOP should prefetch")
	}
}

func TestDegree(t *testing.T) {
	b := New(DefaultConfig()) // degree 2
	// Unit stride: learn offset.
	for i := 0; i < 20000; i++ {
		b.Train(miss(uint64(i%60)+uint64(i/60)*memaddr.LinesPage), nil, nil)
	}
	if b.bestOff == 0 {
		t.Fatal("did not converge on a stream")
	}
	out := b.Train(miss(500*memaddr.LinesPage), nil, nil)
	if len(out) > 2 {
		t.Errorf("degree-2 BOP issued %d prefetches", len(out))
	}
}

func TestEBOPDegreeAdapts(t *testing.T) {
	b := New(EnhancedConfig())
	tests := []struct {
		util bitpattern.Quartile
		want int
	}{
		{bitpattern.Q0, 4},
		{bitpattern.Q1, 4},
		{bitpattern.Q2, 2},
		{bitpattern.Q3, 1},
	}
	for _, tt := range tests {
		if got := b.degree(prefetch.StaticContext{Util: tt.util}); got != tt.want {
			t.Errorf("degree at %v = %d, want %d", tt.util, got, tt.want)
		}
	}
	// Plain BOP never adapts.
	p := New(DefaultConfig())
	if got := p.degree(prefetch.StaticContext{Util: bitpattern.Q0}); got != 2 {
		t.Errorf("plain BOP degree = %d, want 2", got)
	}
}

func TestNoPrefetchingWithBadScore(t *testing.T) {
	b := New(DefaultConfig())
	// Random-ish accesses with no consistent offset: after MaxRound the best
	// score should be <= BadScore and prefetching disabled.
	x := uint64(1)
	for i := 0; i < 30000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		b.Train(miss(x%(1<<30)), nil, nil)
	}
	if b.active || b.bestOff != 0 || b.statDeactivate == 0 {
		t.Errorf("prefetching active (offset %d) after offset-free training", b.bestOff)
	}
}

func TestHitsDontTrainUnlessPrefetched(t *testing.T) {
	b := New(DefaultConfig())
	out := b.Train(prefetch.Access{Line: 5, Hit: true}, nil, nil)
	if len(out) != 0 {
		t.Error("plain hits must not train BOP")
	}
	// Prefetched hits do train.
	for i := 0; i < 20000; i++ {
		b.Train(prefetch.Access{Line: memaddr.Line(i % 60), Hit: true, HitPrefetched: true}, nil, nil)
	}
	if b.round == 0 && b.testIdx == 0 && b.bestOff == 0 {
		t.Error("prefetched hits should advance learning")
	}
}

func TestStaysInPage(t *testing.T) {
	b := New(DefaultConfig())
	for i := 0; i < 20000; i++ {
		b.Train(miss(uint64(i%60)+uint64(i/60)*memaddr.LinesPage), nil, nil)
	}
	out := b.Train(miss(700*memaddr.LinesPage+62), nil, nil)
	for _, r := range out {
		if r.Line.Page() != 700 {
			t.Errorf("prefetch %d escaped page 700", r.Line)
		}
	}
}

func TestStorageBits(t *testing.T) {
	b := New(DefaultConfig())
	kb := float64(b.StorageBits()) / 8192
	if kb < 0.8 || kb > 2.0 {
		t.Errorf("BOP storage = %.2fKB, want ≈1.3KB", kb)
	}
}

func TestNames(t *testing.T) {
	if New(DefaultConfig()).Name() != "bop" || New(EnhancedConfig()).Name() != "ebop" {
		t.Error("wrong names")
	}
}
