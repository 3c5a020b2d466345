package memsys_test

import (
	"testing"

	"dspatch/internal/dram"
	"dspatch/internal/memaddr"
	"dspatch/internal/memsys"
	"dspatch/internal/prefetch"
	"dspatch/internal/sim"
)

// refStream deterministically mixes strided streams with recurring spatial
// visits, exercising hits, misses, prefetch issue and in-flight merging
// without the cost of a full trace generator. The xorshift keeps it
// allocation-free and reproducible.
type refStream struct {
	x   uint64
	n   uint64
	now uint64
}

func (r *refStream) next() (now uint64, pc memaddr.PC, line memaddr.Line, write bool) {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	r.n++
	r.now += 3 + r.x&31
	page := memaddr.Page(r.x >> 40 & 0x3FF)
	off := int(r.n) & (memaddr.LinesPage - 1)
	return r.now, memaddr.PC(0x400000 + r.x>>55*4), page.Line(off), r.x&15 == 0
}

// pace bounds how far the stream's issue clock may lag behind completions,
// playing the role of the core model's ROB/load-buffer limit: a real core
// cannot keep issuing thousands of cycles behind its outstanding misses.
func (r *refStream) pace(done uint64) {
	const window = 4096
	if done > r.now+window {
		r.now = done - window
	}
}

// access drives one reference through the port at core-like pacing.
func (r *refStream) access(p *memsys.Port) {
	r.pace(p.Access(r.next()))
}

func newPort(l2pf func() prefetch.Prefetcher) *memsys.Port {
	cfg := memsys.DefaultConfig(2 << 20)
	d := dram.New(dram.DDR4(1, 2133))
	l1 := func() prefetch.Prefetcher { return prefetch.NewStride(prefetch.DefaultStrideConfig()) }
	return memsys.NewSystem(cfg, d, 1, l1, l2pf).Port(0)
}

// TestPortAccessSteadyStateZeroAllocs enforces the hot path's invariant:
// after warmup, Port.Access performs no heap allocation, for the DSPatch+SPP
// configuration that stresses every structure on the path. The prefetchers'
// telemetry counters are always on (plain uint64 increments in Train; the
// CollectStats flag only snapshots them at finish time), so this guard also
// proves the stats layer adds nothing to the access path.
func TestPortAccessSteadyStateZeroAllocs(t *testing.T) {
	p := newPort(func() prefetch.Prefetcher { return sim.NewPrefetcher(sim.PFDSPatchSPP) })
	s := &refStream{x: 0x9E3779B97F4A7C15}
	for i := 0; i < 50_000; i++ {
		s.access(p)
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		s.access(p)
	})
	if allocs != 0 {
		t.Errorf("Port.Access allocates %.2f times per access in steady state, want 0", allocs)
	}
}
