// Package bitpattern implements the anchored spatial bit-patterns at the core
// of DSPatch (MICRO 2019, §3.3–§3.8).
//
// A Pattern records which cache lines (or 128B super-lines after compression)
// of a memory region were touched. Patterns can be anchored — rotated so that
// bit 0 corresponds to the region's trigger access — which makes access
// streams that differ only by out-of-order shuffling collapse onto one
// representation (paper Fig. 2). Simple OR/AND modulation then derives the
// coverage-biased (CovP) and accuracy-biased (AccP) patterns (Fig. 3, Fig. 9),
// and popcount arithmetic quantifies prediction accuracy and coverage in
// quartiles (Fig. 8).
package bitpattern

import (
	"math/bits"
	"strings"
)

// Pattern is a spatial bit-pattern over a region of width places.
// The zero value is an empty pattern of width 0; construct with New.
// Widths up to 64 are supported, which covers every granularity DSPatch
// uses: 64 (4KB page at 64B lines), 32 (2KB segment at 64B lines, or 4KB
// page at 128B granularity) and 16 (2KB segment at 128B granularity).
type Pattern struct {
	bits  uint64
	width uint8
}

// New returns an empty pattern of the given width. Widths outside [1,64]
// panic: a mis-sized pattern is a programming error, not a runtime condition.
func New(width int) Pattern {
	if width < 1 || width > 64 {
		panic("bitpattern: width out of range [1,64]")
	}
	return Pattern{width: uint8(width)}
}

func (p Pattern) mask() uint64 {
	if p.width == 64 {
		return ^uint64(0)
	}
	return uint64(1)<<p.width - 1
}

// Bits returns the raw bits of the pattern.
func (p Pattern) Bits() uint64 { return p.bits }

// Set returns p with bit i set. Out-of-range i panics.
func (p Pattern) Set(i int) Pattern {
	if i < 0 || i >= int(p.width) {
		panic("bitpattern: index out of range")
	}
	p.bits |= 1 << uint(i)
	return p
}

// PopCount returns the number of set bits.
func (p Pattern) PopCount() int { return bits.OnesCount64(p.bits) }

// Empty reports whether no bits are set.
func (p Pattern) Empty() bool { return p.bits == 0 }

// Or returns the bitwise OR of p and q. Widths must match.
func (p Pattern) Or(q Pattern) Pattern {
	p.checkWidth(q)
	p.bits |= q.bits
	return p
}

// And returns the bitwise AND of p and q. Widths must match.
func (p Pattern) And(q Pattern) Pattern {
	p.checkWidth(q)
	p.bits &= q.bits
	return p
}

// AndNot returns the bits of p not present in q. Widths must match.
func (p Pattern) AndNot(q Pattern) Pattern {
	p.checkWidth(q)
	p.bits &^= q.bits
	return p
}

// Equal reports whether p and q have the same width and bits.
func (p Pattern) Equal(q Pattern) bool { return p.width == q.width && p.bits == q.bits }

func (p Pattern) checkWidth(q Pattern) {
	if p.width != q.width {
		panic("bitpattern: width mismatch")
	}
}

// Anchor rotates the pattern so bit 0 aligns with the trigger offset:
// anchored bit i corresponds to original bit (i+trigger) mod width.
// This is the "rotate left to the trigger" operation of paper Fig. 2.
// A negative trigger rotates the other way, so Anchor(-k) undoes Anchor(k).
func (p Pattern) Anchor(trigger int) Pattern {
	w := int(p.width)
	k := trigger % w
	if k < 0 {
		k += w
	}
	if k == 0 {
		return p
	}
	p.bits = (p.bits>>uint(k) | p.bits<<uint(w-k)) & p.mask()
	return p
}

// Compress halves the granularity: output bit i is set if input bit 2i or
// 2i+1 is set. With 64B lines this is the paper's 128B-granularity
// compression (§3.8). Width must be even. DSPatch compresses a pattern on
// every PB eviction, so this runs branchless: OR odd bits onto even bits,
// then gather the even bits with the shift/mask fold that emulates PEXT with
// the 0x5555… mask.
func (p Pattern) Compress() Pattern {
	if p.width%2 != 0 {
		panic("bitpattern: compress needs even width")
	}
	out := New(int(p.width) / 2)
	x := (p.bits | p.bits>>1) & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	out.bits = x & out.mask()
	return out
}

// Expand doubles the granularity: input bit i sets output bits 2i and 2i+1.
// It is the prediction-side inverse of Compress — a set 128B bit yields
// prefetch candidates for both 64B lines it covers. Branchless: spread the
// bits to even positions (the PDEP-style inverse of Compress's gather), then
// OR the spread onto itself shifted left to light each odd twin.
func (p Pattern) Expand() Pattern {
	if p.width > 32 {
		panic("bitpattern: expand would exceed 64 bits")
	}
	out := New(int(p.width) * 2)
	x := p.bits & 0x00000000FFFFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	out.bits = (x | x<<1) & out.mask()
	return out
}

// Half returns the 2KB-segment half of a full-page pattern: seg 0 is the low
// half, seg 1 the high half. The result has half the width of p.
func (p Pattern) Half(seg int) Pattern {
	if p.width%2 != 0 {
		panic("bitpattern: half needs even width")
	}
	hw := int(p.width) / 2
	out := New(hw)
	if seg == 0 {
		out.bits = p.bits & out.mask()
	} else {
		out.bits = (p.bits >> uint(hw)) & out.mask()
	}
	return out
}

// Concat joins lo (segment 0) and hi (segment 1) into one double-width
// pattern.
func Concat(lo, hi Pattern) Pattern {
	if lo.width != hi.width {
		panic("bitpattern: concat width mismatch")
	}
	out := New(int(lo.width) * 2)
	out.bits = lo.bits | hi.bits<<lo.width
	return out
}

// StringLen returns the exact length of the String rendering: one byte per
// place plus a space before every 4-bit group after the first.
func (p Pattern) StringLen() int {
	w := int(p.width)
	if w == 0 {
		return 0
	}
	return w + (w-1)/4
}

// String renders the pattern LSB-first in 4-bit groups, e.g. "0100 1100".
// The buffer is pre-sized exactly, so the call allocates once.
func (p Pattern) String() string {
	w := int(p.width)
	if w == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(p.StringLen())
	b := p.bits
	for i := 0; i < w; i++ {
		if i > 0 && i&3 == 0 {
			sb.WriteByte(' ')
		}
		sb.WriteByte('0' + byte(b&1))
		b >>= 1
	}
	return sb.String()
}
