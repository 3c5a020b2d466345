package bitpattern

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fromBits returns a pattern of the given width with the low width bits of b.
func fromBits(b uint64, width int) Pattern {
	p := New(width)
	p.bits = b & p.mask()
	return p
}

func TestNewWidths(t *testing.T) {
	for _, w := range []int{1, 16, 32, 64} {
		p := New(w)
		if int(p.width) != w {
			t.Errorf("New(%d) has width %d", w, p.width)
		}
		if !p.Empty() {
			t.Errorf("New(%d) not empty", w)
		}
	}
}

func TestNewPanicsOnBadWidth(t *testing.T) {
	for _, w := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w)
		}()
	}
}

func TestSetGetClear(t *testing.T) {
	p := New(64)
	p = p.Set(0).Set(5).Set(63)
	if want := uint64(1)<<0 | 1<<5 | 1<<63; p.Bits() != want {
		t.Errorf("bits = %#x, want %#x", p.Bits(), want)
	}
	if p.PopCount() != 3 {
		t.Errorf("PopCount = %d, want 3", p.PopCount())
	}
	defer func() {
		if recover() == nil {
			t.Error("Set(64) on a 64-wide pattern did not panic")
		}
	}()
	p.Set(64)
}

func TestOrAndSemantics(t *testing.T) {
	a := fromBits(0b1100, 8)
	b := fromBits(0b1010, 8)
	if got := a.Or(b).Bits(); got != 0b1110 {
		t.Errorf("Or = %#b", got)
	}
	if got := a.And(b).Bits(); got != 0b1000 {
		t.Errorf("And = %#b", got)
	}
	if got := a.AndNot(b).Bits(); got != 0b0100 {
		t.Errorf("AndNot = %#b", got)
	}
}

// TestAnchorPaperFigure2 reproduces the paper's running example: access
// streams B and C (trigger offset 1) both map to bit-pattern
// BP2 = 0100 1100 0001 1000 (LSB-first) and anchor to the same pattern.
func TestAnchorPaperFigure2(t *testing.T) {
	// BP2 written LSB-first over 16 offsets: bits set at 1,4,5,11,12.
	bp2 := New(16).Set(1).Set(4).Set(5).Set(11).Set(12)
	// Stream B: offsets 1,5,4,11,12 (trigger 1). Stream C: 1,5,11,4,12.
	build := func(offsets []int) Pattern {
		p := New(16)
		for _, o := range offsets {
			p = p.Set(o)
		}
		return p
	}
	b := build([]int{1, 5, 4, 11, 12})
	c := build([]int{1, 5, 11, 4, 12})
	if !b.Equal(bp2) || !c.Equal(bp2) {
		t.Fatalf("streams B and C should share BP2; B=%v C=%v want %v", b, c, bp2)
	}
	// Anchoring to trigger 1 rotates so the trigger becomes bit 0.
	anch := bp2.Anchor(1)
	want := New(16).Set(0).Set(3).Set(4).Set(10).Set(11)
	if !anch.Equal(want) {
		t.Errorf("anchored = %v, want %v", anch, want)
	}
}

func TestAnchorUnanchorInverse(t *testing.T) {
	f := func(raw uint64, trig uint8) bool {
		p := fromBits(raw, 64)
		k := int(trig) % 64
		return p.Anchor(k).Anchor(-k).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnchorPreservesPopCount(t *testing.T) {
	f := func(raw uint64, trig uint8) bool {
		p := fromBits(raw, 32)
		return p.Anchor(int(trig)%32).PopCount() == p.PopCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAnchorTriggerBecomesBitZero(t *testing.T) {
	// If the trigger offset's bit is set, the anchored pattern has bit 0 set.
	for trig := 0; trig < 64; trig++ {
		p := New(64).Set(trig)
		if p.Anchor(trig).Bits()&1 == 0 {
			t.Errorf("trigger %d: anchored bit 0 not set", trig)
		}
	}
}

func TestAnchorZeroIsIdentity(t *testing.T) {
	p := fromBits(0xdeadbeefcafe, 64)
	if !p.Anchor(0).Equal(p) {
		t.Error("Anchor(0) should be identity")
	}
}

func TestCompressExpand(t *testing.T) {
	// bits 0 and 1 compress to bit 0; bit 7 compresses to bit 3.
	p := New(8).Set(0).Set(1).Set(7)
	c := p.Compress()
	if c.width != 4 {
		t.Fatalf("compressed width = %d", c.width)
	}
	want := New(4).Set(0).Set(3)
	if !c.Equal(want) {
		t.Errorf("Compress = %v, want %v", c, want)
	}
	e := c.Expand()
	wantE := New(8).Set(0).Set(1).Set(6).Set(7)
	if !e.Equal(wantE) {
		t.Errorf("Expand = %v, want %v", e, wantE)
	}
}

func TestCompressNeverLosesCoverage(t *testing.T) {
	// Expand(Compress(p)) must be a superset of p: compression may over-
	// predict (hurting accuracy) but never under-predict (paper §3.8).
	f := func(raw uint64) bool {
		p := fromBits(raw, 64)
		sup := p.Compress().Expand()
		return p.And(sup).Equal(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompressMispredictionBound(t *testing.T) {
	// The extra (mispredicted) lines from compression are at most PopCount(p):
	// each set 128B bit adds at most one untouched 64B line.
	f := func(raw uint64) bool {
		p := fromBits(raw, 64)
		extra := p.Compress().Expand().AndNot(p).PopCount()
		return extra <= p.PopCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHalfConcat(t *testing.T) {
	p := fromBits(0xABCD_1234_5678_9EF0, 64)
	lo, hi := p.Half(0), p.Half(1)
	if lo.Bits() != 0x5678_9EF0 || hi.Bits() != 0xABCD_1234 {
		t.Errorf("halves = %#x, %#x", lo.Bits(), hi.Bits())
	}
	if !Concat(lo, hi).Equal(p) {
		t.Error("Concat(Half(0), Half(1)) != original")
	}
}

func TestString(t *testing.T) {
	p := New(8).Set(1).Set(4)
	if s := p.String(); s != "0100 1000" {
		t.Errorf("String = %q", s)
	}
}

func TestRotateFullCycle(t *testing.T) {
	// Rotating width times returns the original.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		p := fromBits(rng.Uint64(), 32)
		q := p
		for k := 0; k < 32; k++ {
			q = q.Anchor(1)
		}
		if !q.Equal(p) {
			t.Fatalf("32 single rotations != identity: %v vs %v", q, p)
		}
	}
}

func TestAnchorComposition(t *testing.T) {
	// Anchor(a).Anchor(b) == Anchor(a+b mod w)
	f := func(raw uint64, a, b uint8) bool {
		p := fromBits(raw, 64)
		x, y := int(a)%64, int(b)%64
		return p.Anchor(x).Anchor(y).Equal(p.Anchor((x + y) % 64))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// naiveCompress is the pre-optimization loop implementation of Compress,
// kept as the oracle for the branchless shift/mask fold.
func naiveCompress(p Pattern) Pattern {
	out := New(int(p.width) / 2)
	merged := p.Bits() | p.Bits()>>1
	for i := 0; i < int(out.width); i++ {
		if merged&(1<<uint(2*i)) != 0 {
			out = out.Set(i)
		}
	}
	return out
}

// naiveExpand is the pre-optimization loop implementation of Expand.
func naiveExpand(p Pattern) Pattern {
	out := New(int(p.width) * 2)
	for i := 0; i < int(p.width); i++ {
		if p.Bits()&(1<<uint(i)) != 0 {
			out = out.Set(2 * i).Set(2*i + 1)
		}
	}
	return out
}

func TestCompressMatchesNaive(t *testing.T) {
	for _, w := range []int{2, 4, 8, 16, 32, 64} {
		f := func(raw uint64) bool {
			p := fromBits(raw, w)
			return p.Compress().Equal(naiveCompress(p))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestExpandMatchesNaive(t *testing.T) {
	for _, w := range []int{1, 4, 8, 16, 32} {
		f := func(raw uint64) bool {
			p := fromBits(raw, w)
			return p.Expand().Equal(naiveExpand(p))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("width %d: %v", w, err)
		}
	}
}

func TestStringAllocatesOnce(t *testing.T) {
	p := fromBits(0xdeadbeefcafe1234, 64)
	allocs := testing.AllocsPerRun(100, func() {
		_ = p.String()
	})
	if allocs > 1 {
		t.Errorf("String allocates %.0f times per call, want 1", allocs)
	}
}
