package cache

import (
	"math/rand"
	"testing"

	"dspatch/internal/memaddr"
)

// tagStoreOps decodes a fuzz input into operations, two bytes each: an op
// byte and a line byte. The op byte's low two bits pick Access, Fill or
// Probe (2 and 3); bit 2 is Access's write flag or Fill's Prefetch, bits 3 and
// 4 are Fill's LowPriority and Dirty, and bit 5 asks for an Absent fill when
// the line is not resident. Lines are the line byte itself, so on 4 sets
// every set sees 64 distinct tags.
func runTagStoreOps(t *testing.T, ways int, deadBlockAware bool, ops []byte) {
	cfg := Config{SizeBytes: 4 * ways * memaddr.LineBytes, Ways: ways, DeadBlockAware: deadBlockAware}
	pk := New(cfg)
	ref := newScanStore(cfg)
	for i := 0; i+1 < len(ops); i += 2 {
		op, l := ops[i], memaddr.Line(ops[i+1])
		switch op & 3 {
		case 0:
			write := op&4 != 0
			if got, want := pk.Access(l, write), ref.Access(l, write); got != want {
				t.Fatalf("op %d: Access(%d, %t) = %+v, reference %+v", i/2, l, write, got, want)
			}
		case 1:
			opts := FillOpts{Prefetch: op&4 != 0, LowPriority: op&8 != 0, Dirty: op&16 != 0}
			if op&32 != 0 {
				opts.Absent = !ref.Probe(l)
			}
			if got, want := pk.Fill(l, opts), ref.Fill(l, opts); got != want {
				t.Fatalf("op %d: Fill(%d, %+v) = %+v, reference %+v", i/2, l, opts, got, want)
			}
		default:
			if got, want := pk.Probe(l), ref.Probe(l); got != want {
				t.Fatalf("op %d: Probe(%d) = %t, reference %t", i/2, l, got, want)
			}
		}
	}
	if got, want := pk.Stats(), ref.Stats(); got != want {
		t.Fatalf("Stats = %+v, reference %+v", got, want)
	}
}

// FuzzTagStore runs one operation sequence on the packed tag store and on
// the scan-the-ways scanStore, for ways 1–16 on a 4-set geometry with
// and without dead-block-aware replacement: every return value and the final
// counters must agree.
func FuzzTagStore(f *testing.F) {
	const (
		access = 0
		fill   = 1
		pf     = 4
		lowPri = 8
	)
	// Several low-priority ways tied at LRU, then evicted by low-priority
	// and normal fills and a demand promotion.
	tied := []byte{
		fill | lowPri, 0, fill, 4, fill | lowPri | pf, 8, fill | lowPri, 12,
		fill | lowPri | pf, 16, fill | lowPri, 20,
		access, 16, fill, 24, fill | pf, 28, fill, 32, fill | lowPri, 36,
	}
	for ways := uint8(1); ways <= 16; ways++ {
		f.Add(ways, false, tied)
		f.Add(ways, true, tied)
	}
	rng := rand.New(rand.NewSource(1))
	for ways := uint8(1); ways <= 16; ways++ {
		ops := make([]byte, 512)
		rng.Read(ops)
		f.Add(ways, ways&1 == 0, ops)
	}
	f.Fuzz(func(t *testing.T, ways uint8, deadBlockAware bool, ops []byte) {
		runTagStoreOps(t, 1+int(ways)%16, deadBlockAware, ops)
	})
}
