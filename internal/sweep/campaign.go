// Package sweep turns the repo's hand-coded figure functions inside out: a
// declarative campaign names the axes of a parameter sweep and the engine
// expands it into simulation jobs on the shared experiment engine, so any
// multi-axis question — speedup across bandwidth levels, storage budgets,
// core counts, prefetcher pairings — is a JSON spec instead of a new Go
// function. Every point flows through the experiment engine's worker pool,
// in-process memo and persistent disk cache, which makes interrupted
// campaigns resumable for free: re-submitting a half-finished campaign
// re-simulates only the missing points.
//
// # Campaign spec schema
//
// A campaign is a single JSON object:
//
//	{
//	  "name": "bandwidth-sweep",            // optional label, echoed in records
//	  "base": {                             // optional: fixed Point fields applied to every point
//	    "refs": 40000, "seed": 1
//	  },
//	  "axes": {                             // each axis lists the values to sweep; empty/absent
//	    "workloads": ["mcf", ["a","b"]],    //   axes inherit the base value. workloads entries are
//	    "seeds": [1, 2, 3],                 //   mixes: a string is a 1-lane mix, an array is a
//	    "refs": [20000, 40000],             //   multi-programmed mix (up to 8 lanes).
//	    "llc_bytes": [1048576, 2097152],
//	    "dram_channels": [1, 2],
//	    "dram_mtps": [1600, 2133, 2400],
//	    "sms_pht_entries": [256, 16384],
//	    "l2": ["none", "bop", "sms", "spp"]
//	  },
//	  "sample": {                           // optional; default full grid
//	    "strategy": "random",               // "grid" (default) or "random"
//	    "points": 64,                       // random: sample size (required)
//	    "seed": 7                           // random: sampling seed (default 1, reproducible)
//	  },
//	  "baseline_l2": "none",                // default "none": each point's speedup is computed
//	                                        //   against the same point with l2 = baseline_l2
//	  "max_points": 1000,                   // optional cap; a grid larger than it is an error
//	  "scenarios": [                        // optional: ad-hoc scenario specs this campaign's
//	    {"name": "my-chase", "kind": "pointer",      // workload names may reference; registered
//	     "pointer": {"style": "list", "nodes": 4096, // strictly before expansion (redefining an
//	      "nodes_per_page": 8, "depth": 256,         // existing workload differently is an error,
//	      "mean_gap": 12}}                           // identical re-registration is a no-op)
//	  ]
//	}
//
// Expansion order is canonical and documented: workloads, seeds, refs,
// llc_bytes, dram_channels, dram_mtps, sms_pht_entries, l2 — outermost
// first, l2 fastest — so the same spec always yields the same point indices,
// and random sampling (a seeded draw of grid indices, emitted in ascending
// index order) is reproducible byte for byte.
//
// # Result stream
//
// The engine emits NDJSON records as points complete, never buffering the
// whole grid: one "campaign" header, one "point" record per point in index
// order, and a final "summary" record with per-axis marginal geomean
// speedups and dropped-point accounting. Point records are a pure function
// of the spec (byte-identical across runs and front ends); only the summary
// carries timing and cache-hit telemetry.
package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// HardMaxPoints bounds any campaign's expanded point count, whatever the
// spec says: the engine materializes sampled points (not the grid), but
// records and marginal pools are O(points).
const HardMaxPoints = 1 << 16

// Strategy names for Sample.Strategy.
const (
	StrategyGrid   = "grid"
	StrategyRandom = "random"
)

// Mix is one workloads-axis value: a workload mix of 1..8 lanes. It
// unmarshals from either a bare string ("mcf", a 1-lane mix) or an array of
// names (["a","b","c","d"], the paper's multi-programmed machine).
type Mix []string

// UnmarshalJSON accepts "name" or ["name", ...].
func (m *Mix) UnmarshalJSON(data []byte) error {
	t := strings.TrimSpace(string(data))
	if strings.HasPrefix(t, `"`) {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*m = Mix{s}
		return nil
	}
	var ws []string
	if err := json.Unmarshal(data, &ws); err != nil {
		return err
	}
	*m = Mix(ws)
	return nil
}

// Axes names the swept dimensions of a campaign. An empty axis is not swept:
// every point inherits that field from Campaign.Base (or its Normalize
// default).
type Axes struct {
	Workloads     []Mix    `json:"workloads,omitempty"`
	Seeds         []int64  `json:"seeds,omitempty"`
	Refs          []int    `json:"refs,omitempty"`
	LLCBytes      []int    `json:"llc_bytes,omitempty"`
	DRAMChannels  []int    `json:"dram_channels,omitempty"`
	DRAMMTps      []int    `json:"dram_mtps,omitempty"`
	SMSPHTEntries []int    `json:"sms_pht_entries,omitempty"`
	L2            []string `json:"l2,omitempty"`
}

// Sample selects how the axis grid is turned into points.
type Sample struct {
	// Strategy is "grid" (every combination, the default) or "random" (a
	// seeded, reproducible draw of Points distinct grid indices).
	Strategy string `json:"strategy,omitempty"`
	// Points is the random sample size (ignored for grid).
	Points int `json:"points,omitempty"`
	// Seed drives the random draw (default 1). The same spec and seed always
	// select the same points.
	Seed int64 `json:"seed,omitempty"`
}

// Campaign is a declarative parameter sweep; see the package comment for the
// JSON schema.
type Campaign struct {
	Name string `json:"name,omitempty"`
	// Base supplies the fixed fields of every point. Fields also named by an
	// axis are overwritten per point.
	Base Point `json:"base,omitempty"`
	Axes Axes  `json:"axes"`
	// Sample defaults to the full grid.
	Sample Sample `json:"sample,omitempty"`
	// BaselineL2 designates the prefetcher whose runs serve as each point's
	// speedup baseline (default "none"). Points whose own l2 equals it are
	// emitted as baseline records with no speedup field.
	BaselineL2 string `json:"baseline_l2,omitempty"`
	// MaxPoints optionally caps the campaign (and bounds a grid strategy:
	// a larger grid is an error, pointing at random sampling).
	MaxPoints int `json:"max_points,omitempty"`
	// Scenarios defines ad-hoc scenario specs scoped to this campaign: they
	// are validated and registered before expansion, making their names
	// available to Base.Workloads and the workloads axis. Registration is
	// strict — redefining an existing workload with different content is an
	// error — and idempotent, so re-validating or resubmitting the same
	// campaign (including journal-resume after a daemon restart) is safe.
	Scenarios []trace.ScenarioSpec `json:"scenarios,omitempty"`
}

// axis is one expansion dimension: n values, applied to a point by index.
// Axes with n == 1 and no values (unswept) apply nothing.
type axis struct {
	name  string
	n     int
	set   func(p *Point, i int)
	label func(i int) string
}

// axes returns the campaign's dimensions in canonical expansion order,
// outermost first. Unswept axes appear with n = 1 so the mixed-radix index
// arithmetic stays uniform. The table costs a slice and its closures, so
// callers build it once and use it for every point.
func (c *Campaign) axes() []axis {
	one := func(p *Point, i int) {}
	mk := func(name string, n int, set func(p *Point, i int), label func(i int) string) axis {
		if n == 0 {
			return axis{name: name, n: 1, set: one, label: func(int) string { return "" }}
		}
		return axis{name: name, n: n, set: set, label: label}
	}
	a := c.Axes
	return []axis{
		mk("workloads", len(a.Workloads),
			func(p *Point, i int) { p.Workloads = a.Workloads[i] },
			func(i int) string { return strings.Join(a.Workloads[i], "+") }),
		mk("seeds", len(a.Seeds),
			func(p *Point, i int) { p.Seed = a.Seeds[i] },
			func(i int) string { return strconv.FormatInt(a.Seeds[i], 10) }),
		mk("refs", len(a.Refs),
			func(p *Point, i int) { p.Refs = a.Refs[i] },
			func(i int) string { return strconv.Itoa(a.Refs[i]) }),
		mk("llc_bytes", len(a.LLCBytes),
			func(p *Point, i int) { p.LLCBytes = a.LLCBytes[i] },
			func(i int) string { return strconv.Itoa(a.LLCBytes[i]) }),
		mk("dram_channels", len(a.DRAMChannels),
			func(p *Point, i int) { p.DRAMChannels = a.DRAMChannels[i] },
			func(i int) string { return strconv.Itoa(a.DRAMChannels[i]) }),
		mk("dram_mtps", len(a.DRAMMTps),
			func(p *Point, i int) { p.DRAMMTps = a.DRAMMTps[i] },
			func(i int) string { return strconv.Itoa(a.DRAMMTps[i]) }),
		mk("sms_pht_entries", len(a.SMSPHTEntries),
			func(p *Point, i int) { p.SMSPHTEntries = a.SMSPHTEntries[i] },
			func(i int) string { return strconv.Itoa(a.SMSPHTEntries[i]) }),
		mk("l2", len(a.L2),
			func(p *Point, i int) { p.L2 = a.L2[i] },
			func(i int) string { return a.L2[i] }),
	}
}

// gridSize returns the full cross-product size of the axes (1 for an
// axis-free campaign: the base point alone). A grid too large to count is
// an error: a partial product must never be used as a sampling bound, or
// random draws would silently exclude the inner axes' combinations.
func gridSize(axes []axis) (int64, error) {
	total := int64(1)
	for _, ax := range axes {
		n := int64(ax.n)
		if total > math.MaxInt64/n {
			return 0, fmt.Errorf("sweep: grid size overflows int64; shrink the axes")
		}
		total *= n
	}
	return total, nil
}

// cap returns the campaign's effective point cap.
func (c *Campaign) cap() int {
	if c.MaxPoints > 0 && c.MaxPoints < HardMaxPoints {
		return c.MaxPoints
	}
	return HardMaxPoints
}

// baselineL2 returns the designated baseline prefetcher name.
func (c *Campaign) baselineL2() string {
	if c.BaselineL2 != "" {
		return c.BaselineL2
	}
	return string(sim.PFNone)
}

// point materializes grid index idx of the campaign's axes into *p, a
// normalized Point that owns its Workloads: it never shares the spec's
// slices. They are appended to *lanes, the one backing of an expansion's
// points, and capped there.
func (c *Campaign) point(axes []axis, idx int64, p *Point, lanes *[]string) error {
	*p = c.Base
	for i := len(axes) - 1; i >= 0; i-- {
		ax := axes[i]
		ax.set(p, int(idx%int64(ax.n)))
		idx /= int64(ax.n)
	}
	n := len(*lanes)
	*lanes = append(*lanes, p.Workloads...)
	p.Workloads = (*lanes)[n:len(*lanes):len(*lanes)]
	return p.Normalize()
}

// indices returns the sorted grid indices the campaign's sampling strategy
// selects. Grid returns every index; random draws Sample.Points distinct
// indices with a seeded generator (Floyd's algorithm, so huge grids are
// never materialized) and sorts them so emission order is canonical.
func (c *Campaign) indices(axes []axis) ([]int64, error) {
	total, err := gridSize(axes)
	if err != nil {
		return nil, err
	}
	switch c.Sample.Strategy {
	case "", StrategyGrid:
		if total > int64(c.cap()) {
			return nil, fmt.Errorf("sweep: grid has %d points, cap is %d; raise max_points or use random sampling", total, c.cap())
		}
		out := make([]int64, total)
		for i := range out {
			out[i] = int64(i)
		}
		return out, nil
	case StrategyRandom:
		k := c.Sample.Points
		if k <= 0 {
			return nil, fmt.Errorf("sweep: random sampling requires sample.points > 0")
		}
		if k > c.cap() {
			return nil, fmt.Errorf("sweep: sample.points %d exceeds cap %d", k, c.cap())
		}
		if int64(k) >= total {
			// Sample covers the grid: degenerate to the full grid.
			out := make([]int64, total)
			for i := range out {
				out[i] = int64(i)
			}
			return out, nil
		}
		seed := c.Sample.Seed
		if seed == 0 {
			seed = 1
		}
		r := rand.New(rand.NewSource(seed))
		// Floyd's F2: k distinct values in [0, total) without materializing
		// the grid; deterministic for a fixed seed.
		chosen := make(map[int64]struct{}, k)
		for j := total - int64(k); j < total; j++ {
			t := r.Int63n(j + 1)
			if _, ok := chosen[t]; ok {
				t = j
			}
			chosen[t] = struct{}{}
		}
		out := make([]int64, 0, k)
		for idx := range chosen {
			out = append(out, idx)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	default:
		return nil, fmt.Errorf("sweep: unknown sample.strategy %q (want %q or %q)",
			c.Sample.Strategy, StrategyGrid, StrategyRandom)
	}
}

// Plan is a validated campaign with its sampled points materialized: what
// Engine.RunWith executes. A front end that validates a submission by
// planning it keeps the Plan, so the campaign is expanded once.
type Plan struct {
	c    Campaign
	axes []axis
	idxs []int64 // grid index of each point
	pts  []Point
}

// Expand validates the campaign and materializes its sampled points in
// canonical order, returning the points alongside their grid indices.
func (c *Campaign) Expand() ([]int64, []Point, error) {
	p, err := c.Plan()
	if err != nil {
		return nil, nil, err
	}
	return p.idxs, p.pts, nil
}

// Plan validates the campaign and expands it (see Expand).
func (c *Campaign) Plan() (*Plan, error) {
	if c.BaselineL2 != "" && !sim.KnownPF(sim.PF(c.BaselineL2)) {
		return nil, fmt.Errorf("sweep: baseline_l2: unknown prefetcher %q", c.BaselineL2)
	}
	if len(c.Base.Scenarios) > 0 {
		// Scenarios belong in the campaign-level block so stored point records
		// stay spec-free and byte-identical across front ends.
		return nil, fmt.Errorf("sweep: base.scenarios is not allowed; use the campaign-level \"scenarios\" block")
	}
	for i := range c.Scenarios {
		if _, err := trace.RegisterSpec(c.Scenarios[i]); err != nil {
			return nil, fmt.Errorf("sweep: scenarios[%d]: %w", i, err)
		}
	}
	if c.MaxPoints < 0 {
		return nil, fmt.Errorf("sweep: max_points must be non-negative, got %d", c.MaxPoints)
	}
	if c.Sample.Points < 0 {
		return nil, fmt.Errorf("sweep: sample.points must be non-negative, got %d", c.Sample.Points)
	}
	axes := c.axes()
	idxs, err := c.indices(axes)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, len(idxs))
	lanes := make([]string, 0, len(idxs)) // one lane a point, as a start
	for i, idx := range idxs {
		if err := c.point(axes, idx, &pts[i], &lanes); err != nil {
			return nil, fmt.Errorf("sweep: point %d: %w", idx, err)
		}
		if pts[i].TrackPollution {
			// Pollution fractions are not part of the stream (see Metrics),
			// so a campaign would pay for the taxonomy and drop it.
			return nil, fmt.Errorf("sweep: point %d: track_pollution is not supported in campaigns", idx)
		}
	}
	return &Plan{c: *c, axes: axes, idxs: idxs, pts: pts}, nil
}
