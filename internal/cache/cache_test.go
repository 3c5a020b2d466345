package cache

import (
	"testing"
	"testing/quick"

	"dspatch/internal/memaddr"
)

func smallCache() *Cache {
	// 4 sets × 2 ways × 64B = 512B.
	return New(Config{Name: "T", SizeBytes: 512, Ways: 2})
}

func TestConfigSets(t *testing.T) {
	cfg := Config{SizeBytes: 32 << 10, Ways: 8}
	if cfg.Sets() != 64 {
		t.Errorf("32KB/8way sets = %d, want 64", cfg.Sets())
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache()
	if r := c.Access(100, false); r.Hit {
		t.Fatal("cold access should miss")
	}
	c.Fill(100, FillOpts{})
	if r := c.Access(100, false); !r.Hit {
		t.Fatal("after fill should hit")
	}
	s := c.Stats()
	if s.DemandHits != 1 || s.DemandMisses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache() // 4 sets, 2 ways; lines with same low 2 bits collide
	// Lines 0, 4, 8 all map to set 0.
	c.Fill(0, FillOpts{})
	c.Fill(4, FillOpts{})
	c.Access(0, false) // touch 0 so 4 is LRU
	v := c.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 4 {
		t.Errorf("victim = %+v, want line 4", v)
	}
	if !c.Probe(0) || !c.Probe(8) || c.Probe(4) {
		t.Error("wrong resident set after eviction")
	}
}

func TestPrefetchFirstUse(t *testing.T) {
	c := smallCache()
	c.Fill(7, FillOpts{Prefetch: true})
	r := c.Access(7, false)
	if !r.Hit || !r.FirstUseOfPrefetch {
		t.Fatalf("first demand on prefetched line: %+v", r)
	}
	r = c.Access(7, false)
	if !r.Hit || r.FirstUseOfPrefetch {
		t.Fatalf("second demand should not count as first use: %+v", r)
	}
	if s := c.Stats(); s.PrefetchHits != 1 || s.PrefetchFills != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestPrefetchUnusedCounted(t *testing.T) {
	c := smallCache()
	c.Fill(0, FillOpts{Prefetch: true})
	c.Fill(4, FillOpts{})
	v := c.Fill(8, FillOpts{}) // evicts line 0 (prefetched, unused, oldest)
	if !v.Valid || !v.WasPrefetched {
		t.Errorf("victim = %+v, want prefetched-unused", v)
	}
	if s := c.Stats(); s.PrefetchUnused != 1 {
		t.Errorf("PrefetchUnused = %d, want 1", s.PrefetchUnused)
	}
}

func TestLowPriorityFillEvictedFirst(t *testing.T) {
	c := smallCache()
	c.Fill(0, FillOpts{})
	c.Fill(4, FillOpts{Prefetch: true, LowPriority: true})
	// Even though 4 was filled last, it sits at LRU and is evicted first.
	v := c.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 4 {
		t.Errorf("victim = %+v, want low-priority line 4", v)
	}
}

func TestLowPriorityPromotedByDemand(t *testing.T) {
	c := smallCache()
	c.Fill(0, FillOpts{})
	c.Fill(4, FillOpts{Prefetch: true, LowPriority: true})
	c.Access(4, false) // promote
	v := c.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 0 {
		t.Errorf("victim = %+v, want line 0 after promotion of 4", v)
	}
}

func TestDeadBlockAwareVictim(t *testing.T) {
	c := New(Config{SizeBytes: 512, Ways: 2, DeadBlockAware: true})
	c.Fill(0, FillOpts{Prefetch: true}) // unused prefetch
	c.Fill(4, FillOpts{})
	c.Access(4, false)
	c.Access(0, false) // use the prefetch: no longer dead
	// Now neither is dead; LRU (4... actually 4 touched before 0) evicted.
	v := c.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 4 {
		t.Errorf("victim = %+v, want 4 (LRU, no dead block)", v)
	}

	c2 := New(Config{SizeBytes: 512, Ways: 2, DeadBlockAware: true})
	c2.Fill(0, FillOpts{})
	c2.Fill(4, FillOpts{Prefetch: true})
	c2.Access(0, false) // 0 is MRU and used; 4 is prefetched-unused
	v = c2.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 4 {
		t.Errorf("victim = %+v, want dead prefetched line 4", v)
	}
}

func TestDirtyEviction(t *testing.T) {
	c := smallCache()
	c.Fill(0, FillOpts{})
	c.Access(0, true) // write
	c.Fill(4, FillOpts{})
	v := c.Fill(8, FillOpts{})
	if !v.Valid || v.Line != 0 || !v.Dirty {
		t.Errorf("victim = %+v, want dirty line 0", v)
	}
	if s := c.Stats(); s.DirtyEvictions != 1 {
		t.Errorf("DirtyEvictions = %d", s.DirtyEvictions)
	}
}

func TestDuplicateFillNoVictim(t *testing.T) {
	c := smallCache()
	c.Fill(0, FillOpts{})
	v := c.Fill(0, FillOpts{Prefetch: true})
	if v.Valid {
		t.Errorf("duplicate fill should not evict, got %+v", v)
	}
}

func TestVictimLineReconstruction(t *testing.T) {
	// Property: the victim's line address must map to the same set as the
	// fill and be a line we actually inserted earlier.
	f := func(a, b, cIn uint16) bool {
		c := smallCache()
		l1 := memaddr.Line(a)
		l2 := memaddr.Line(uint64(b)<<2 | uint64(a)&3) // same set as l1
		l3 := memaddr.Line(uint64(cIn)<<2 | uint64(a)&3)
		if l1 == l2 || l2 == l3 || l1 == l3 {
			return true // skip degenerate draws
		}
		c.Fill(l1, FillOpts{})
		c.Fill(l2, FillOpts{})
		v := c.Fill(l3, FillOpts{})
		return v.Valid && (v.Line == l1 || v.Line == l2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCapacityProperty(t *testing.T) {
	// After filling N distinct lines that all map across the whole cache,
	// at most SizeBytes/LineBytes lines are resident.
	c := New(Config{SizeBytes: 4096, Ways: 4})
	for i := 0; i < 1000; i++ {
		c.Fill(memaddr.Line(i), FillOpts{})
	}
	resident := 0
	for i := 0; i < 1000; i++ {
		if c.Probe(memaddr.Line(i)) {
			resident++
		}
	}
	if max := 4096 / memaddr.LineBytes; resident > max {
		t.Errorf("resident = %d exceeds capacity %d", resident, max)
	} else if resident < max {
		t.Errorf("resident = %d, expected full cache %d", resident, max)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero ways", Config{SizeBytes: 512, Ways: 0}, "cache: ways must be in [1,16]"},
		{"17 ways", Config{SizeBytes: 17 * 4 * 64, Ways: 17}, "cache: ways must be in [1,16]"},
		{"non-power-of-two sets", Config{SizeBytes: 3 * 64, Ways: 1}, "cache: set count must be a positive power of two"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := recover(); got != tc.want {
					t.Errorf("New(%+v) panicked with %v, want %q", tc.cfg, got, tc.want)
				}
			}()
			New(tc.cfg)
		})
	}
}
