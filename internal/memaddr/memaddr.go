// Package memaddr defines address arithmetic shared by every component of
// the simulator: cache lines, 4KB pages, 2KB segments and in-page offsets.
//
// The whole repository works in physical addresses. A cache line is 64 bytes,
// a page is 4KB (64 lines) and a segment is 2KB (32 lines), matching the
// geometry DSPatch (MICRO 2019) assumes.
package memaddr

// Fundamental geometry. These are constants of the studied machine, not
// tunables: DSPatch's bit-pattern layout (64 lines/page, 32 lines/segment)
// depends on them.
const (
	LineBytes  = 64                    // bytes per cache line
	PageBytes  = 4096                  // bytes per physical page
	SegBytes   = 2048                  // bytes per 2KB segment (half page)
	LineShift  = 6                     // log2(LineBytes)
	PageShift  = 12                    // log2(PageBytes)
	SegShift   = 11                    // log2(SegBytes)
	LinesPage  = PageBytes / LineBytes // 64
	LinesSeg   = SegBytes / LineBytes  // 32
	SegsPage   = 2
	OffsetMask = LinesPage - 1
)

// Addr is a byte-granular physical address.
type Addr uint64

// Line is a cache-line address (Addr >> LineShift).
type Line uint64

// Page is a physical page number (Addr >> PageShift).
type Page uint64

// PC is a program counter value used as prefetcher context.
type PC uint64

// LineOf returns the cache-line address containing a.
func LineOf(a Addr) Line { return Line(a >> LineShift) }

// Page returns the page containing line l.
func (l Line) Page() Page { return Page(l >> (PageShift - LineShift)) }

// PageOffset returns the index of line l within its page, in [0, LinesPage).
func (l Line) PageOffset() int { return int(l) & OffsetMask }

// SegOffset returns the index of line l within its 2KB segment, in [0, LinesSeg).
func (l Line) SegOffset() int { return int(l) & (LinesSeg - 1) }

// Segment returns 0 if line l lies in the first 2KB of its page, 1 otherwise.
func (l Line) Segment() int { return (int(l) >> (SegShift - LineShift)) & 1 }

// Line returns the cache-line address of line offset off within page p.
// off must be in [0, LinesPage).
func (p Page) Line(off int) Line {
	return Line(uint64(p)<<(PageShift-LineShift) | uint64(off&OffsetMask))
}

// FoldXOR folds v down to bits wide bits by repeatedly XORing bits-wide
// chunks. DSPatch uses it to index its tagless Signature Pattern Table with a
// PC and to compress the PC stored in Page Buffer entries.
func FoldXOR(v uint64, bits uint) uint64 {
	if bits == 0 || bits >= 64 {
		return v
	}
	mask := uint64(1)<<bits - 1
	var f uint64
	for v != 0 {
		f ^= v & mask
		v >>= bits
	}
	return f
}
