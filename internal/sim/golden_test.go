package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"dspatch/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_results.json from the current simulator")

// The golden corpus pins the complete sim.Result of every case below: one
// workload per category plus tpcc, linpack and mcf on DefaultST, two 4-lane
// mixes on DefaultMP, each under PFNone and every other prefetcher of
// AllPFs, at two seeds, with CollectStats on so the per-prefetcher telemetry
// is pinned too. A few extra cases switch on TrackPollution, NoL1Stride and
// SMSPHTEntries. It is the behaviour oracle of the simulator: an
// optimization must leave it unchanged, and a deliberate behaviour change
// (a fidelity fix, a new model default) bumps ResultVersion and regenerates
// it (go test ./internal/sim -run Golden -update-golden), so the reviewed
// diff of this file shows which numbers moved. Regenerate only on purpose
// and say why in the commit.
const (
	goldenPath   = "testdata/golden_results.json"
	goldenRefsST = 6_000
	goldenRefsMP = 4_000
)

var goldenSeeds = []int64{1, 42}

// goldenMixes returns the corpus's two 4-lane multi-programmed mixes, eight
// categories between them.
func goldenMixes() [][]trace.Workload {
	first := func(c trace.Category) trace.Workload { return trace.ByCategory(c)[0] }
	return [][]trace.Workload{
		{first(trace.Client), first(trace.HPC), first(trace.ISPEC06), first(trace.Cloud)},
		{first(trace.Server), first(trace.FSPEC06), first(trace.FSPEC17), first(trace.SYSmark)},
	}
}

// goldenVariants pin the Options paths the plain roster leaves at their
// defaults. Each runs on tpcc, mcf and the first mix, at every seed.
var goldenVariants = []struct {
	suffix string
	pfs    []PF
	set    func(*Options)
}{
	{"poll", []PF{PFNone, PFSPP, PFDSPatch, PFDSPatchSPP, PFStreamer}, func(o *Options) { o.TrackPollution = true }},
	{"nol1", []PF{PFNone, PFDSPatchSPP}, func(o *Options) { o.NoL1Stride = true }},
	{"pht256", []PF{PFSMS}, func(o *Options) { o.SMSPHTEntries = 256 }},
	{"pht4096", []PF{PFSMS}, func(o *Options) { o.SMSPHTEntries = 4096 }},
}

// goldenGroup is the corpus cases sharing one trace identity: one RunBatch.
type goldenGroup struct {
	ws   []trace.Workload
	keys []string
	opts []Options
}

func (g *goldenGroup) add(key string, o Options) {
	o.CollectStats = true
	g.keys = append(g.keys, key)
	g.opts = append(g.opts, o)
}

// goldenGroups lists every corpus case, grouped by trace identity.
func goldenGroups() []goldenGroup {
	var sts []trace.Workload
	seen := map[string]bool{}
	addST := func(w trace.Workload) {
		if !seen[w.Name] {
			seen[w.Name] = true
			sts = append(sts, w)
		}
	}
	for _, cat := range trace.Categories {
		addST(trace.ByCategory(cat)[0])
	}
	for _, name := range []string{"tpcc", "linpack", "mcf"} {
		addST(wl(name))
	}

	var groups []goldenGroup
	for _, seed := range goldenSeeds {
		for _, w := range sts {
			base := DefaultST()
			base.Refs, base.Seed = goldenRefsST, seed
			g := goldenGroup{ws: []trace.Workload{w}}
			label := fmt.Sprintf("st/%s", w.Name)
			addRoster(&g, label, seed, base)
			if w.Name == "tpcc" || w.Name == "mcf" {
				addVariants(&g, label, seed, base)
			}
			groups = append(groups, g)
		}
		for i, mix := range goldenMixes() {
			base := DefaultMP()
			base.Refs, base.Seed = goldenRefsMP, seed
			g := goldenGroup{ws: mix}
			label := fmt.Sprintf("mp/mix%d", i+1)
			addRoster(&g, label, seed, base)
			if i == 0 {
				addVariants(&g, label, seed, base)
			}
			groups = append(groups, g)
		}
	}
	return groups
}

func addRoster(g *goldenGroup, label string, seed int64, base Options) {
	for _, pf := range AllPFs {
		o := base
		o.L2 = pf
		g.add(fmt.Sprintf("%s/%s/s%d", label, pf, seed), o)
	}
}

func addVariants(g *goldenGroup, label string, seed int64, base Options) {
	for _, v := range goldenVariants {
		for _, pf := range v.pfs {
			o := base
			o.L2 = pf
			v.set(&o)
			g.add(fmt.Sprintf("%s/%s/s%d/%s", label, pf, seed, v.suffix), o)
		}
	}
}

// goldenCase is one pinned Result. The readable numbers make a corpus diff
// show which metric moved; Bits pins every float field exactly; SHA256
// covers the whole Result, PortStats and Prefetchers included.
type goldenCase struct {
	IPC         []float64   `json:"ipc"`
	Cycles      uint64      `json:"cycles"`
	Coverage    float64     `json:"coverage"`
	MispredRate float64     `json:"mispred"`
	Accuracy    float64     `json:"accuracy"`
	BWGBps      float64     `json:"bw_gbps"`
	Bits        goldenBits  `json:"bits"`
	Ports       []PortStats `json:"ports"`
	SHA256      string      `json:"sha256"`
}

// goldenBits holds each float field of a Result as math.Float64bits.
type goldenBits struct {
	IPC              []uint64  `json:"ipc"`
	Coverage         uint64    `json:"coverage"`
	MispredRate      uint64    `json:"mispred"`
	Accuracy         uint64    `json:"accuracy"`
	AvgBandwidthGBps uint64    `json:"bw_gbps"`
	PeakBandwidth    uint64    `json:"peak_bw"`
	Pollution        [3]uint64 `json:"pollution"`
}

// goldenFile is the corpus on disk.
type goldenFile struct {
	ResultVersion int                   `json:"result_version"`
	Cases         map[string]goldenCase `json:"cases"`
}

func pinResult(t *testing.T, key string, r Result) goldenCase {
	t.Helper()
	whole, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("%s: encode result: %v", key, err)
	}
	sum := sha256.Sum256(whole)
	c := goldenCase{
		IPC:         r.IPC,
		Cycles:      r.Cycles,
		Coverage:    r.Coverage,
		MispredRate: r.MispredRate,
		Accuracy:    r.Accuracy,
		BWGBps:      r.AvgBandwidthGBps,
		Bits: goldenBits{
			Coverage:         math.Float64bits(r.Coverage),
			MispredRate:      math.Float64bits(r.MispredRate),
			Accuracy:         math.Float64bits(r.Accuracy),
			AvgBandwidthGBps: math.Float64bits(r.AvgBandwidthGBps),
			PeakBandwidth:    math.Float64bits(r.PeakBandwidth),
		},
		Ports:  r.PortStats,
		SHA256: hex.EncodeToString(sum[:]),
	}
	for _, v := range r.IPC {
		c.Bits.IPC = append(c.Bits.IPC, math.Float64bits(v))
	}
	for i, v := range r.Pollution {
		c.Bits.Pollution[i] = math.Float64bits(v)
	}
	return c
}

// runGolden simulates every corpus case, one RunBatch per trace identity.
func runGolden(t *testing.T) map[string]goldenCase {
	t.Helper()
	got := map[string]goldenCase{}
	for _, g := range goldenGroups() {
		for i, r := range RunBatch(g.ws, g.opts) {
			got[g.keys[i]] = pinResult(t, g.keys[i], r)
		}
	}
	return got
}

// writeGolden writes the corpus one case per line, sorted by key, so a
// behaviour change diffs as the lines of the cases it moved.
func writeGolden(t *testing.T, cases map[string]goldenCase) {
	t.Helper()
	keys := make([]string, 0, len(cases))
	for k := range cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"result_version\": %d,\n  \"cases\": {\n", ResultVersion)
	for i, k := range keys {
		line, err := json.Marshal(cases[k])
		if err != nil {
			t.Fatal(err)
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "    %q: %s%s\n", k, line, sep)
	}
	buf.WriteString("  }\n}\n")
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d golden results to %s", len(keys), goldenPath)
}

// checkGolden compares got with the committed corpus.
func checkGolden(t *testing.T, got map[string]goldenCase) {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus (regenerate with -update-golden): %v", err)
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	if want.ResultVersion != ResultVersion {
		t.Fatalf("%s records ResultVersion %d, the code has %d: regenerate it with -update-golden and review the diff",
			goldenPath, want.ResultVersion, ResultVersion)
	}
	const maxShown = 10
	changed := 0
	keys := make([]string, 0, len(want.Cases))
	for k := range want.Cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: case no longer simulated", key)
			continue
		}
		if w := want.Cases[key]; !reflect.DeepEqual(g, w) {
			if changed++; changed <= maxShown {
				gj, _ := json.Marshal(g)
				wj, _ := json.Marshal(w)
				t.Errorf("%s: result changed\ngolden: %s\ngot:    %s", key, wj, gj)
			}
		}
	}
	if changed > maxShown {
		t.Errorf("%d of %d cases changed (first %d shown)", changed, len(want.Cases), maxShown)
	}
	for key := range got {
		if _, ok := want.Cases[key]; !ok {
			t.Errorf("%s: not in golden corpus (regenerate with -update-golden)", key)
		}
	}
}

func TestGoldenResults(t *testing.T) {
	got := runGolden(t)
	if *updateGolden {
		writeGolden(t, got)
		return
	}
	checkGolden(t, got)
}
