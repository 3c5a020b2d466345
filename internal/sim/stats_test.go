package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"dspatch/internal/trace"
)

// bitsEq compares floats bit-for-bit (NaN == NaN), the equality the
// differential below needs: identical computations must produce identical
// bit patterns, whatever the value.
func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func bitsEqSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// coreMetricsEqual compares everything in a Result except the telemetry
// sections the CollectStats flag controls.
func coreMetricsEqual(a, b Result) bool {
	return bitsEqSlice(a.IPC, b.IPC) &&
		a.Cycles == b.Cycles &&
		bitsEq(a.Coverage, b.Coverage) &&
		bitsEq(a.MispredRate, b.MispredRate) &&
		bitsEq(a.Accuracy, b.Accuracy) &&
		bitsEq(a.AvgBandwidthGBps, b.AvgBandwidthGBps) &&
		bitsEq(a.PeakBandwidth, b.PeakBandwidth) &&
		bitsEq(a.Pollution[0], b.Pollution[0]) &&
		bitsEq(a.Pollution[1], b.Pollution[1]) &&
		bitsEq(a.Pollution[2], b.Pollution[2]) &&
		reflect.DeepEqual(a.PortStats, b.PortStats)
}

// TestCollectStatsDifferential is the observer-effect guard: turning
// CollectStats on must change nothing but the Prefetchers section — every
// core metric stays bit-identical, on the single-thread machine and on a
// multi-lane mix. The models' counters are always on; the flag only snapshots them, so any divergence
// here means collection leaked into simulation behaviour.
func TestCollectStatsDifferential(t *testing.T) {
	tpcc, ok := trace.ByName("tpcc")
	if !ok {
		t.Fatal("workload roster is missing tpcc")
	}
	mcf, ok := trace.ByName("mcf")
	if !ok {
		t.Fatal("workload roster is missing mcf")
	}

	st := DefaultST()
	st.Refs = 3_000
	st.L2 = PFDSPatchSPP

	mp := DefaultMP()
	mp.Refs = 2_000
	mp.L2 = PFDSPatch

	cases := []struct {
		name string
		ws   []trace.Workload
		opt  Options
	}{
		{"optimized", []trace.Workload{tpcc}, st},
		{"multilane", []trace.Workload{tpcc, mcf}, mp},
	}
	for _, tc := range cases {
		off := Run(tc.ws, tc.opt)
		withStats := tc.opt
		withStats.CollectStats = true
		on := Run(tc.ws, withStats)

		if len(off.Prefetchers) != 0 {
			t.Errorf("%s: stats-off run carries %d Prefetchers entries, want none", tc.name, len(off.Prefetchers))
		}
		if len(on.Prefetchers) == 0 {
			t.Errorf("%s: stats-on run collected no telemetry", tc.name)
		}
		if !coreMetricsEqual(off, on) {
			t.Errorf("%s: CollectStats changed core metrics\noff: %+v\non:  %+v", tc.name, off, on)
		}
	}
}

// TestCollectStatsMergesLanes pins the lane-merge contract: a multi-lane run
// under one prefetcher reports one merged entry per model name, not one per
// lane, and the merged trigger counts cover every lane's work.
func TestCollectStatsMergesLanes(t *testing.T) {
	tpcc, _ := trace.ByName("tpcc")
	mcf, _ := trace.ByName("mcf")
	opt := DefaultMP()
	opt.Refs = 2_000
	opt.L2 = PFDSPatch
	opt.CollectStats = true

	res := Run([]trace.Workload{tpcc, mcf}, opt)
	names := map[string]int{}
	for _, st := range res.Prefetchers {
		names[st.Name]++
	}
	for name, n := range names {
		if n != 1 {
			t.Errorf("model %q appears %d times; lanes must merge by name", name, n)
		}
	}
	if names["dspatch"] != 1 {
		t.Errorf("expected a merged dspatch entry, got models %v", names)
	}

	// The merged entry must aggregate both lanes: strictly more trains than
	// a single lane could contribute alone (each lane trains on its misses).
	single := Run([]trace.Workload{tpcc}, func() Options {
		o := DefaultST()
		o.Refs = 2_000
		o.L2 = PFDSPatch
		o.CollectStats = true
		return o
	}())
	var mergedTrains, singleTrains uint64
	for _, st := range res.Prefetchers {
		if st.Name == "dspatch" {
			mergedTrains = st.Counters["triggers"]
		}
	}
	for _, st := range single.Prefetchers {
		if st.Name == "dspatch" {
			singleTrains = st.Counters["triggers"]
		}
	}
	if mergedTrains == 0 || singleTrains == 0 {
		t.Fatalf("trigger counters missing (merged %d, single %d)", mergedTrains, singleTrains)
	}
}

// TestCompressionHistTelemetryMatchesModel pins Fig. 11b's source: the
// compression_mispred histogram a CollectStats run reports for the dspatch
// model equals DSPatch's own CompressionHist counters, summed over every
// lane's port of the machine that produced the Result.
func TestCompressionHistTelemetryMatchesModel(t *testing.T) {
	mix := []trace.Workload{wl("tpcc"), wl("mcf"), wl("linpack"), wl("tpcc")}
	for _, pf := range []PF{PFDSPatch, PFDSPatchSPP} {
		for _, ws := range [][]trace.Workload{mix[:1], mix} {
			opt := DefaultST()
			if len(ws) > 1 {
				opt = DefaultMP()
			}
			opt.Refs = 6_000
			opt.L2 = pf
			opt.CollectStats = true
			m, err := runMachine(context.Background(), ws, opt)
			if err != nil {
				t.Fatal(err)
			}
			res := m.finish()
			var want [6]uint64
			for _, l := range m.lanes {
				d := FindDSPatch(l.ad.port.L2Prefetcher())
				if d == nil {
					t.Fatalf("%s: no DSPatch on the L2 port", pf)
				}
				for i, v := range d.Stats().CompressionHist {
					want[i] += v
				}
			}
			var got []uint64
			for _, st := range res.Prefetchers {
				if st.Name == "dspatch" {
					got = st.Histograms["compression_mispred"].Counts
				}
			}
			if !reflect.DeepEqual(got, want[:]) {
				t.Errorf("%s/%d lanes: telemetry compression_mispred = %v, model CompressionHist = %v",
					pf, len(ws), got, want)
			}
		}
	}
}
