package sim

import (
	"testing"

	"dspatch/internal/core"
	"dspatch/internal/prefetch"
	"dspatch/internal/trace"
)

// fastOpts shrinks runs so the test suite stays quick.
func fastOpts() Options {
	o := DefaultST()
	o.Refs = 30_000
	return o
}

func wl(name string) trace.Workload {
	w, ok := trace.ByName(name)
	if !ok {
		panic("unknown workload " + name)
	}
	return w
}

func TestBaselineRuns(t *testing.T) {
	r := RunSingle(wl("linpack"), fastOpts())
	if len(r.IPC) != 1 || r.IPC[0] <= 0 {
		t.Fatalf("IPC = %v", r.IPC)
	}
	if r.Cycles == 0 {
		t.Fatal("no cycles simulated")
	}
	if r.AvgBandwidthGBps <= 0 || r.AvgBandwidthGBps > r.PeakBandwidth {
		t.Errorf("bandwidth %v outside (0, %v]", r.AvgBandwidthGBps, r.PeakBandwidth)
	}
}

func TestDeterminism(t *testing.T) {
	a := RunSingle(wl("mcf"), fastOpts())
	b := RunSingle(wl("mcf"), fastOpts())
	if a.IPC[0] != b.IPC[0] || a.Cycles != b.Cycles {
		t.Errorf("same options diverged: %v vs %v", a.IPC, b.IPC)
	}
}

func TestSPPBeatsBaselineOnStream(t *testing.T) {
	opt := fastOpts()
	base := RunSingle(wl("linpack"), opt)
	opt.L2 = PFSPP
	with := RunSingle(wl("linpack"), opt)
	sp := Speedup(base, with)[0]
	if sp < 1.02 {
		t.Errorf("SPP speedup on streaming = %.3f, want > 1.02", sp)
	}
	if with.Coverage <= 0.2 {
		t.Errorf("SPP coverage on streaming = %.2f, want substantial", with.Coverage)
	}
}

func TestDSPatchBeatsBaselineOnSpatial(t *testing.T) {
	opt := fastOpts()
	base := RunSingle(wl("sysmark-excel"), opt)
	opt.L2 = PFDSPatch
	with := RunSingle(wl("sysmark-excel"), opt)
	sp := Speedup(base, with)[0]
	if sp < 1.005 {
		t.Errorf("DSPatch speedup on spatial workload = %.3f, want > 1.005", sp)
	}
}

func TestAdjunctAtLeastAsGoodAsSPPAlone(t *testing.T) {
	opt := fastOpts()
	w := wl("npb-cg")
	base := RunSingle(w, opt)
	opt.L2 = PFSPP
	sppOnly := Speedup(base, RunSingle(w, opt))[0]
	opt.L2 = PFDSPatchSPP
	both := Speedup(base, RunSingle(w, opt))[0]
	if both < sppOnly-0.02 {
		t.Errorf("DSPatch+SPP (%.3f) clearly worse than SPP (%.3f) on npb-cg", both, sppOnly)
	}
}

func TestEveryPrefetcherRuns(t *testing.T) {
	kinds := []PF{PFBOP, PFEBOP, PFSMS, PFSPP, PFESPP, PFAMPM, PFStreamer, PFDSPatch,
		PFDSPatchSPP, PFBOPSPP, PFSMS256SPP, PFEBOPSPP, PFTriple,
		PFDSPatchAlwaysCov, PFDSPatchModCov, PFDSPatchNoCompress, PFDSPatchSingleTrigger}
	opt := fastOpts()
	opt.Refs = 5_000
	for _, k := range kinds {
		opt.L2 = k
		r := RunSingle(wl("gcc06"), opt)
		if r.IPC[0] <= 0 {
			t.Errorf("%s: IPC %v", k, r.IPC)
		}
	}
}

func TestMultiProgrammedRun(t *testing.T) {
	opt := DefaultMP()
	opt.Refs = 10_000
	ws := []trace.Workload{wl("mcf"), wl("lbm17"), wl("tpcc"), wl("linpack")}
	r := Run(ws, opt)
	if len(r.IPC) != 4 {
		t.Fatalf("IPC count = %d", len(r.IPC))
	}
	for i, ipc := range r.IPC {
		if ipc <= 0 {
			t.Errorf("core %d IPC %v", i, ipc)
		}
	}
}

func TestContentionSlowsCores(t *testing.T) {
	// Four copies of a bandwidth-hungry workload on shared DRAM must run
	// slower per core than the same workload alone on the same hardware.
	opt := DefaultMP()
	opt.Refs = 20_000
	w := wl("lbm17")
	alone := Run([]trace.Workload{w}, opt)
	four := Run([]trace.Workload{w, w, w, w}, opt)
	if four.IPC[0] >= alone.IPC[0] {
		t.Errorf("4-copy IPC %.3f should trail solo IPC %.3f", four.IPC[0], alone.IPC[0])
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := Result{IPC: []float64{1, 2}}
	b := Result{IPC: []float64{2, 3}}
	sp := Speedup(a, b)
	if sp[0] != 2 || sp[1] != 1.5 {
		t.Errorf("Speedup = %v", sp)
	}
}

func TestPollutionTracking(t *testing.T) {
	opt := fastOpts()
	opt.L2 = PFStreamer
	opt.TrackPollution = true
	r := RunSingle(wl("mcf"), opt)
	total := r.Pollution[0] + r.Pollution[1] + r.Pollution[2]
	if total < 0.99 || total > 1.01 {
		t.Errorf("pollution fractions sum to %v", total)
	}
}

// FindDSPatch digs a DSPatch instance out of a (possibly composite)
// prefetcher, or returns nil.
func FindDSPatch(p prefetch.Prefetcher) *core.DSPatch {
	switch v := p.(type) {
	case *core.DSPatch:
		return v
	case *prefetch.Composite:
		for _, part := range v.Parts() {
			if d := FindDSPatch(part); d != nil {
				return d
			}
		}
	}
	return nil
}

func TestFindDSPatch(t *testing.T) {
	if FindDSPatch(NewPrefetcher(PFDSPatch)) == nil {
		t.Error("should find standalone DSPatch")
	}
	if FindDSPatch(NewPrefetcher(PFDSPatchSPP)) == nil {
		t.Error("should find DSPatch inside a composite")
	}
	if FindDSPatch(NewPrefetcher(PFSPP)) != nil {
		t.Error("should not find DSPatch in SPP")
	}
}

func TestStorageRoster(t *testing.T) {
	// Paper Table 3 ballparks.
	checks := []struct {
		kind PF
		loKB float64
		hiKB float64
	}{
		{PFBOP, 0.8, 2},
		{PFSMS, 60, 120},
		{PFSPP, 3, 8},
		{PFDSPatch, 3, 3.7},
	}
	for _, c := range checks {
		kb := float64(NewPrefetcher(c.kind).StorageBits()) / 8192
		if kb < c.loKB || kb > c.hiKB {
			t.Errorf("%s storage = %.2fKB, want [%v, %v]", c.kind, kb, c.loKB, c.hiKB)
		}
	}
}
