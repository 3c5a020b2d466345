package memaddr

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if LinesPage != 64 {
		t.Errorf("LinesPage = %d, want 64", LinesPage)
	}
	if LinesSeg != 32 {
		t.Errorf("LinesSeg = %d, want 32", LinesSeg)
	}
	if 1<<LineShift != LineBytes {
		t.Errorf("LineShift inconsistent: 1<<%d != %d", LineShift, LineBytes)
	}
	if 1<<PageShift != PageBytes {
		t.Errorf("PageShift inconsistent")
	}
	if 1<<SegShift != SegBytes {
		t.Errorf("SegShift inconsistent")
	}
}

func TestLineOf(t *testing.T) {
	tests := []struct {
		addr Addr
		want Line
	}{
		{0, 0},
		{63, 0},
		{64, 1},
		{4095, 63},
		{4096, 64},
		{0xdeadbeef, 0xdeadbeef >> 6},
	}
	for _, tt := range tests {
		if got := LineOf(tt.addr); got != tt.want {
			t.Errorf("LineOf(%#x) = %d, want %d", tt.addr, got, tt.want)
		}
	}
}

func TestPageOf(t *testing.T) {
	tests := []struct {
		addr Addr
		want Page
	}{
		{0, 0},
		{4095, 0},
		{4096, 1},
		{0x12345678, 0x12345},
	}
	for _, tt := range tests {
		if got := LineOf(tt.addr).Page(); got != tt.want {
			t.Errorf("LineOf(%#x).Page() = %d, want %d", tt.addr, got, tt.want)
		}
	}
}

func TestLineOffsets(t *testing.T) {
	// Line 0 of a page: offset 0, segment 0. Line 32: offset 32, segment 1.
	p := Page(7)
	for off := 0; off < LinesPage; off++ {
		l := p.Line(off)
		if l.Page() != p {
			t.Fatalf("line %d: Page() = %d, want %d", off, l.Page(), p)
		}
		if l.PageOffset() != off {
			t.Fatalf("line %d: PageOffset() = %d", off, l.PageOffset())
		}
		wantSeg := 0
		if off >= LinesSeg {
			wantSeg = 1
		}
		if l.Segment() != wantSeg {
			t.Fatalf("line %d: Segment() = %d, want %d", off, l.Segment(), wantSeg)
		}
		if l.SegOffset() != off%LinesSeg {
			t.Fatalf("line %d: SegOffset() = %d, want %d", off, l.SegOffset(), off%LinesSeg)
		}
	}
}

func TestRoundTripLineAddr(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw)
		base := Addr(LineOf(a)) << LineShift
		// The line's base address must cover a.
		return base <= a && a < base+LineBytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageLineRoundTrip(t *testing.T) {
	f := func(raw uint64, off uint8) bool {
		p := Page(raw % (1 << 36))
		o := int(off) % LinesPage
		l := p.Line(o)
		return l.Page() == p && l.PageOffset() == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldXOR(t *testing.T) {
	tests := []struct {
		v    uint64
		bits uint
		want uint64
	}{
		{0, 8, 0},
		{0xff, 8, 0xff},
		{0xff00, 8, 0xff},
		{0xf00f, 8, 0xf0 ^ 0x0f},
		{0xffff, 8, 0},      // two equal bytes cancel
		{0x0101, 16, 0x101}, // fits in 16 bits already
		{^uint64(0), 64, ^uint64(0)},
		{12345, 0, 12345}, // bits=0 means identity
	}
	for _, tt := range tests {
		if got := FoldXOR(tt.v, tt.bits); got != tt.want {
			t.Errorf("FoldXOR(%#x, %d) = %#x, want %#x", tt.v, tt.bits, got, tt.want)
		}
	}
}

func TestFoldXORBounded(t *testing.T) {
	f := func(v uint64) bool {
		return FoldXOR(v, 8) < 256 && FoldXOR(v, 10) < 1024
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentBoundary(t *testing.T) {
	p := Page(3)
	if p.Line(31).Segment() != 0 {
		t.Error("line 31 should be segment 0")
	}
	if p.Line(32).Segment() != 1 {
		t.Error("line 32 should be segment 1")
	}
}
