package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dspatch/internal/experiments"
	"dspatch/internal/trace"
)

func TestMixUnmarshalStringOrArray(t *testing.T) {
	var a Axes
	if err := json.Unmarshal([]byte(`{"workloads":["mcf",["mcf","tpcc"]]}`), &a); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := []Mix{{"mcf"}, {"mcf", "tpcc"}}
	if !reflect.DeepEqual(a.Workloads, want) {
		t.Errorf("workloads = %v, want %v", a.Workloads, want)
	}
}

// TestExpandCanonicalOrder pins the documented expansion order: workloads
// outermost, l2 innermost, so point indices are stable across runs, front
// ends and releases.
func TestExpandCanonicalOrder(t *testing.T) {
	c := Campaign{
		Base: Point{Refs: 1000},
		Axes: Axes{
			Workloads: []Mix{{"mcf"}, {"tpcc"}},
			L2:        []string{"none", "spp"},
		},
	}
	idxs, pts, err := c.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d, want 4", len(pts))
	}
	order := make([]string, len(pts))
	for i, p := range pts {
		order[i] = p.Workloads[0] + "/" + p.L2
		if idxs[i] != int64(i) {
			t.Errorf("grid index %d = %d", i, idxs[i])
		}
	}
	want := []string{"mcf/none", "mcf/spp", "tpcc/none", "tpcc/spp"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("order = %v, want %v", order, want)
	}
	// Points are normalized: the single-thread machine defaults are filled.
	if pts[0].LLCBytes != 2<<20 || pts[0].DRAMChannels != 1 || pts[0].DRAMMTps != 2133 || pts[0].Seed != 1 {
		t.Errorf("point not normalized: %+v", pts[0])
	}
}

// TestExpandMultiLaneDefaults: a 4-lane mix point normalizes to the paper's
// multi-programmed machine.
func TestExpandMultiLaneDefaults(t *testing.T) {
	c := Campaign{
		Base: Point{Refs: 1000},
		Axes: Axes{Workloads: []Mix{{"mcf", "tpcc", "linpack", "kmeans"}}},
	}
	_, pts, err := c.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if pts[0].LLCBytes != 8<<20 || pts[0].DRAMChannels != 2 {
		t.Errorf("multi-lane defaults not applied: %+v", pts[0])
	}
}

func TestExpandValidation(t *testing.T) {
	base := Axes{Workloads: []Mix{{"mcf"}}}
	cases := []struct {
		name string
		c    Campaign
		want string
	}{
		{"no workloads", Campaign{}, "at least one workload"},
		{"unknown workload", Campaign{Axes: Axes{Workloads: []Mix{{"nope"}}}}, "unknown workload"},
		{"unknown strategy", Campaign{Axes: base, Sample: Sample{Strategy: "zigzag"}}, "unknown sample.strategy"},
		{"random without points", Campaign{Axes: base, Sample: Sample{Strategy: StrategyRandom}}, "sample.points > 0"},
		{"negative max points", Campaign{Axes: base, MaxPoints: -1}, "max_points"},
		{"unknown baseline", Campaign{Axes: base, BaselineL2: "warp"}, "baseline_l2"},
		{"pollution rejected", Campaign{Base: Point{TrackPollution: true}, Axes: base}, "track_pollution"},
		{"grid over cap", Campaign{
			Axes:      Axes{Workloads: []Mix{{"mcf"}, {"tpcc"}}, Seeds: []int64{1, 2, 3}},
			MaxPoints: 5,
		}, "raise max_points or use random sampling"},
		{"bad axis value", Campaign{Axes: Axes{Workloads: []Mix{{"mcf"}}, DRAMMTps: []int{123}}}, "dram_mtps"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.c.Plan()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Plan() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestRandomSamplingReproducible: a seeded draw selects the same sorted
// index subset every time, and a different seed (on a grid this size) a
// different one.
func TestRandomSamplingReproducible(t *testing.T) {
	mk := func(seed int64) Campaign {
		return Campaign{
			Axes: Axes{
				Workloads: []Mix{{"mcf"}, {"tpcc"}, {"linpack"}, {"kmeans"}},
				Seeds:     []int64{1, 2, 3, 4, 5, 6, 7, 8},
				L2:        []string{"none", "spp", "bop", "sms"},
			},
			Sample: Sample{Strategy: StrategyRandom, Points: 10, Seed: seed},
		}
	}
	c := mk(7)
	if g, err := gridSize(c.axes()); err != nil || g != 128 {
		t.Fatalf("grid = %d (%v), want 128", g, err)
	}
	i1, p1, err := c.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	cAgain := mk(7)
	i2, p2, err := cAgain.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !reflect.DeepEqual(i1, i2) || !reflect.DeepEqual(p1, p2) {
		t.Errorf("same seed sampled differently: %v vs %v", i1, i2)
	}
	if len(i1) != 10 {
		t.Fatalf("sampled %d, want 10", len(i1))
	}
	for k := 1; k < len(i1); k++ {
		if i1[k-1] >= i1[k] {
			t.Fatalf("indices not strictly ascending: %v", i1)
		}
	}
	cOther := mk(8)
	i3, _, err := cOther.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if reflect.DeepEqual(i1, i3) {
		t.Errorf("different seeds drew the same sample: %v", i1)
	}
}

// TestRandomSampleCoveringGridDegradesToGrid: asking for at least as many
// points as the grid holds returns the whole grid.
func TestRandomSampleCoveringGridDegradesToGrid(t *testing.T) {
	c := Campaign{
		Axes:   Axes{Workloads: []Mix{{"mcf"}, {"tpcc"}}},
		Sample: Sample{Strategy: StrategyRandom, Points: 99},
	}
	idxs, _, err := c.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if !reflect.DeepEqual(idxs, []int64{0, 1}) {
		t.Errorf("indices = %v, want [0 1]", idxs)
	}
}

// FuzzCampaignExpand feeds arbitrary bytes through the CLI's strict campaign
// decoding into Expand, which must never panic. Every point Expand returns
// is normalized, and because run deduplication and fleet dispatch rest on
// the run identity alone, its JSON round trip must normalize again to the
// same run key. The shared scenario registry is reset for each input, so
// inputs never see each other's scenarios.
func FuzzCampaignExpand(f *testing.F) {
	for _, seed := range []string{
		`{"name":"grid","base":{"refs":691},"axes":{"workloads":["mcf","tpcc"],"l2":["none","spp"]}}`,
		`{"base":{"workloads":["mcf","tpcc"],"collect_stats":true},"axes":{"seeds":[1,2],"llc_bytes":[1048576,4194304],"dram_channels":[1,2],"dram_mtps":[1600,2400]},"baseline_l2":"spp"}`,
		`{"base":{"workloads":["linpack"]},"axes":{"l2":["sms","dspatch+spp"],"sms_pht_entries":[256,1024],"refs":[1000,5000000]},"sample":{"strategy":"random","points":3,"seed":9}}`,
		`{"axes":{"workloads":["fz-chase",["fz-chase","mcf"]]},"scenarios":[{"name":"fz-chase","kind":"pointer","pointer":{"style":"list","nodes":1024,"nodes_per_page":8,"depth":64,"mean_gap":10}}]}`,
		`{"base":{"workloads":["mcf"],"track_pollution":true},"axes":{}}`,
		`{"base":{"workloads":["mcf"]},"axes":{"llc_bytes":[100000]},"max_points":1}`,
		`{"axes":{"workloads":["mcf"]},"unknown":1}`,
		`{"axes":{"seeds":[0,-1]},"base":{"workloads":["mcf","mcf","mcf","mcf","mcf","mcf","mcf","mcf","mcf"]}}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		trace.ResetShared()
		defer trace.ResetShared()
		var c Campaign
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&c) != nil {
			return
		}
		for _, s := range c.Scenarios {
			if s.Trace != nil && s.Trace.Path != "" {
				return // reads the filesystem, not the spec
			}
		}
		_, pts, err := c.Expand()
		if err != nil {
			return
		}
		for i, p := range pts {
			key := experiments.JobID(p.Job()).String()
			b, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("point %d: marshal: %v", i, err)
			}
			var q Point
			if err := json.Unmarshal(b, &q); err != nil {
				t.Fatalf("point %d: unmarshal %s: %v", i, b, err)
			}
			if err := q.Normalize(); err != nil {
				t.Fatalf("point %d: round trip %s no longer normalizes: %v", i, b, err)
			}
			if got := experiments.JobID(q.Job()).String(); got != key {
				t.Fatalf("point %d: run key changed across a JSON round trip:\n%s\n%s", i, key, got)
			}
		}
	})
}
