// Command dspatchsim regenerates the DSPatch paper's tables and figures.
//
// Usage:
//
//	dspatchsim -experiment fig12           # quick scale (default)
//	dspatchsim -experiment fig15 -full     # full 75-workload roster
//	dspatchsim -experiment all -parallel 8 # pin the simulation worker count
//	dspatchsim -experiment all -cache-dir ~/.cache/dspatchsim  # reuse runs across invocations
//	dspatchsim -campaign sweep.json -campaign-csv out.csv  # declarative parameter sweep (internal/sweep)
//	dspatchsim -stats -workload tpcc       # one run with per-prefetcher telemetry tables
//	dspatchsim -stats -workload tpcc -l2 dspatch+spp -stats-json  # same, machine-readable
//	dspatchsim -trace-export tpcc.trace -workload tpcc -refs 50000
//	dspatchsim -trace-import tpcc.trace -experiment fig12
//	dspatchsim -trace-convert app.champsim.gz -convert-out app.dsptrc  # ChampSim/gem5 LLC trace -> DSPTRC01
//	dspatchsim -scenario specs.json -campaign sweep.json   # register declarative scenarios, then sweep them
//	dspatchsim -experiment all -cpuprofile cpu.prof
//	dspatchsim -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// experimentOrder mirrors the shared experiment registry
// (internal/experiments/registry.go), the single source of truth for both
// this CLI and the dspatchd service.
var experimentOrder = experiments.ExperimentIDs()

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// appMain is main with its dependencies injected, so tests can drive the CLI
// end to end.
func appMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dspatchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("experiment", "", "experiment id (see -list) or 'all'")
	full := fs.Bool("full", false, "run the full 75-workload roster (slow)")
	refs := fs.Int("refs", 0, "override memory references per run")
	parallel := fs.Int("parallel", 0, "simulation worker goroutines (0 = GOMAXPROCS)")
	list := fs.Bool("list", false, "list experiment ids")
	campaign := fs.String("campaign", "", "run a declarative campaign sweep from this JSON spec file (see internal/sweep)")
	campaignOut := fs.String("campaign-out", "", "write the campaign NDJSON stream to this file (default stdout)")
	campaignCSV := fs.String("campaign-csv", "", "also mirror campaign point records into this CSV file")
	cacheDir := fs.String("cache-dir", "", "persistent run-cache directory: completed simulations are reused across process invocations")
	noCache := fs.Bool("no-cache", false, "ignore -cache-dir (force every simulation to run)")
	stats := fs.Bool("stats", false, "run the -workload once with per-prefetcher telemetry and print the stats tables")
	statsJSON := fs.Bool("stats-json", false, "emit the -stats output as JSON instead of tables")
	l2 := fs.String("l2", "dspatch", "L2 prefetcher for -stats (see GET /v1/prefetchers or internal/sim)")
	traceExport := fs.String("trace-export", "", "record the -workload reference stream and write it to this file")
	traceImport := fs.String("trace-import", "", "load a trace file; its refs replace the generator for that (workload, seed)")
	traceConvert := fs.String("trace-convert", "", "convert an external LLC trace (ChampSim binary or text; plain or gzipped) to DSPTRC01")
	convertOut := fs.String("convert-out", "", "output path for -trace-convert (default <name>.dsptrc)")
	convertName := fs.String("convert-name", "", "workload name recorded in the converted trace (default input basename)")
	convertFormat := fs.String("convert-format", "auto", "input layout for -trace-convert: auto, text or champsim")
	scenario := fs.String("scenario", "", "register scenario spec file(s) before running (JSON object or array; comma-separated paths)")
	workload := fs.String("workload", "", "workload name for -trace-export or -stats (see internal/trace roster)")
	seed := fs.Int64("seed", 1, "generator seed for -trace-export or -stats")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	// Flag-validation audit: every bad value or nonsensical combination must
	// exit non-zero with a message, never be silently ignored.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	fail := func(msg string) int {
		fmt.Fprintln(stderr, "dspatchsim:", msg)
		return 2
	}
	switch {
	case *refs < 0:
		return fail(fmt.Sprintf("-refs must be non-negative, got %d", *refs))
	case *parallel < 0:
		return fail(fmt.Sprintf("-parallel must be non-negative, got %d", *parallel))
	case set["workload"] && *traceExport == "" && !*stats:
		return fail("-workload only applies to -trace-export or -stats")
	case *stats && *workload == "":
		return fail("-stats requires -workload")
	case *stats && (*exp != "" || *campaign != "" || *traceExport != ""):
		return fail("-stats cannot be combined with -experiment, -campaign or -trace-export")
	case (set["l2"] || *statsJSON) && !*stats:
		return fail("-l2/-stats-json only apply to -stats")
	case *noCache && *cacheDir == "":
		return fail("-no-cache without -cache-dir has nothing to disable")
	case (*campaignOut != "" || *campaignCSV != "") && *campaign == "":
		return fail("-campaign-out/-campaign-csv only apply to -campaign")
	case *campaign != "" && (*exp != "" || *traceExport != "" || *traceImport != ""):
		return fail("-campaign cannot be combined with -experiment or trace flags")
	case *campaign != "" && (set["refs"] || set["full"] || set["seed"]):
		// Campaign scale lives in the spec; a silently-ignored override would
		// leave the user comparing wrong-scale results.
		return fail("-refs/-full/-seed do not apply to -campaign (set refs and seeds in the spec)")
	case (set["convert-out"] || set["convert-name"] || set["convert-format"]) && *traceConvert == "":
		return fail("-convert-out/-convert-name/-convert-format only apply to -trace-convert")
	case *traceConvert != "" && (*exp != "" || *campaign != "" || *stats || *traceExport != "" || *traceImport != ""):
		return fail("-trace-convert is a standalone conversion; import the result with -trace-import or a trace-kind scenario spec")
	case *scenario != "" && *exp == "" && *campaign == "" && !*stats && *traceExport == "":
		return fail("-scenario requires something to run it with: -experiment, -campaign, -stats or -trace-export")
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experimentOrder, "\n"))
		return 0
	}
	if *traceConvert != "" {
		if err := convertTrace(*traceConvert, *convertOut, *convertName, *convertFormat, *seed, *refs, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if *exp == "" && *traceExport == "" && *traceImport == "" && *campaign == "" && !*stats {
		fmt.Fprintln(stderr, "usage: dspatchsim -experiment <id|all> [-full] [-refs N] [-parallel N] [-cache-dir DIR]")
		fmt.Fprintln(stderr, "       dspatchsim -campaign SPEC.json [-campaign-out FILE.ndjson] [-campaign-csv FILE.csv]")
		fmt.Fprintln(stderr, "       dspatchsim -stats -workload NAME [-l2 PF] [-refs N] [-seed N] [-stats-json]")
		fmt.Fprintln(stderr, "       dspatchsim -trace-export FILE -workload NAME [-refs N] [-seed N]")
		fmt.Fprintln(stderr, "       dspatchsim -trace-import FILE [-experiment ...]")
		fmt.Fprintln(stderr, "       dspatchsim -trace-convert IN [-convert-out FILE.dsptrc] [-convert-name NAME] [-convert-format auto|text|champsim]")
		fmt.Fprintln(stderr, "       dspatchsim -scenario SPECS.json {-experiment ...|-campaign ...|-stats ...|-trace-export ...}")
		fmt.Fprintln(stderr, "ids:", strings.Join(experimentOrder, " "))
		return 2
	}

	// The run-cache directory is set (or cleared) on every invocation: the
	// engine is process-global, so a stale directory from an earlier call in
	// the same process must not leak into one that disabled it. An imported
	// trace changes simulation inputs in a way the cache key (workload name
	// + seed) cannot distinguish from the synthetic generator, so importing
	// forces the cache off for the invocation.
	activeCacheDir := ""
	if *cacheDir != "" && !*noCache {
		if *traceImport != "" {
			fmt.Fprintln(stderr, "note: persistent run cache disabled for this invocation: -trace-import replaces a stream the cache key does not capture")
		} else {
			activeCacheDir = *cacheDir
		}
	}
	if err := experiments.SetCacheDir(activeCacheDir); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Scenario registration precedes everything that resolves workload
	// names. Unlike -trace-import, spec-registered scenarios carry content
	// fingerprints into every cache key, so the persistent cache stays on.
	if *scenario != "" {
		for _, path := range strings.Split(*scenario, ",") {
			if path = strings.TrimSpace(path); path == "" {
				continue
			}
			ws, err := trace.RegisterSpecFile(path)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			for _, w := range ws {
				fmt.Fprintf(stdout, "registered scenario %q (%s, %s)\n", w.Name, w.Category, w.Source)
			}
		}
	}

	if *campaign != "" {
		if err := runCampaign(*campaign, *campaignOut, *campaignCSV, *parallel, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	var imported *trace.Materialized
	importedKnown := false // name was already in the roster (a generator stream was replaced)
	if *traceImport != "" {
		m, known, err := importTrace(*traceImport)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		imported, importedKnown = m, known
		fmt.Fprintf(stdout, "imported trace %s: workload %q seed %d refs %d\n",
			*traceImport, m.Name(), m.Seed(), m.Len())
		if *exp == "" && *traceExport == "" && !*stats {
			return 0
		}
	}
	if *traceExport != "" {
		if *workload == "" {
			fmt.Fprintln(stderr, "trace-export: -workload is required")
			return 2
		}
		n, err := exportTrace(*traceExport, *workload, *seed, *refs)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "exported %d refs of %q (seed %d) to %s\n", n, *workload, *seed, *traceExport)
		if *exp == "" {
			return 0
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
			}
		}()
	}

	if *stats {
		if err := runStats(*workload, *l2, *refs, *seed, *parallel, *statsJSON, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	scale := experiments.Quick()
	if *full {
		scale = experiments.Full()
	}
	if *refs > 0 {
		scale.Refs = *refs
	}
	scale = scale.WithParallel(*parallel)

	// Guard the documented import-then-experiment flow up front: an imported
	// trace cannot be extended, so an experiment that actually replays it
	// past its end would panic mid-simulation. Only streams the experiments
	// can reach are checked — a roster-known name at one of the lane seeds
	// the engine derives from the scale seed; an unknown-name or
	// foreign-seed import is never read and must not block the run.
	if imported != nil && *exp != "" && importedKnown && scale.Refs > imported.Len() {
		seedReachable := false
		for lane := 0; lane < 4; lane++ {
			if imported.Seed() == sim.LaneSeed(scale.Seed, lane) {
				seedReachable = true
			}
		}
		if seedReachable {
			fmt.Fprintf(stderr, "trace-import: %q holds %d refs but the requested scale simulates %d per run; re-export with more refs or pass -refs %d\n",
				imported.Name(), imported.Len(), scale.Refs, imported.Len())
			return 2
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experimentOrder
	}
	for _, id := range ids {
		if !run(stdout, id, scale) {
			fmt.Fprintf(stderr, "unknown experiment %q\n", id)
			return 2
		}
	}
	return 0
}

// exportTrace materializes refs references of the named workload at seed and
// writes the scenario file. refs <= 0 uses the single-thread default.
func exportTrace(path, name string, seed int64, refs int) (int, error) {
	w, ok := trace.ByName(name)
	if !ok {
		return 0, fmt.Errorf("trace-export: unknown workload %q", name)
	}
	if refs <= 0 {
		refs = 40_000
	}
	m := trace.Shared(w, seed)
	if !m.CanExtend() && m.Len() < refs {
		// The stream was itself imported this invocation; it cannot grow.
		return 0, fmt.Errorf("trace-export: %q holds %d refs and cannot be extended to %d", name, m.Len(), refs)
	}
	trace.Replay(w, seed, refs) // extend the recording to refs
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("trace-export: %w", err)
	}
	if err := m.Export(f, refs); err != nil {
		f.Close()
		return 0, fmt.Errorf("trace-export: %w", err)
	}
	return refs, f.Close()
}

// convertTrace ingests an external LLC trace (ChampSim binary or text,
// plain or gzipped) and writes it as a DSPTRC01 scenario file, ready for
// -trace-import or a trace-kind scenario spec. refs > 0 bounds the
// conversion; seed is recorded in the header (external traces have no
// generator seed; it only distinguishes store entries).
func convertTrace(in, out, name, format string, seed int64, refs int, stdout io.Writer) error {
	if name == "" {
		base := filepath.Base(in)
		for ext := filepath.Ext(base); ext != "" && ext != base; ext = filepath.Ext(base) {
			base = strings.TrimSuffix(base, ext)
		}
		name = base
	}
	if name == "" {
		return fmt.Errorf("trace-convert: cannot derive a workload name from %q; pass -convert-name", in)
	}
	if out == "" {
		out = name + ".dsptrc"
	}
	f, err := os.Open(in)
	if err != nil {
		return fmt.Errorf("trace-convert: %w", err)
	}
	defer f.Close()
	m, err := trace.Convert(f, trace.ConvertOptions{Name: name, Seed: seed, MaxRefs: refs, Format: format})
	if err != nil {
		return fmt.Errorf("trace-convert: %w", err)
	}
	o, err := os.Create(out)
	if err != nil {
		return fmt.Errorf("trace-convert: %w", err)
	}
	if err := m.Export(o, 0); err != nil {
		o.Close()
		return fmt.Errorf("trace-convert: %w", err)
	}
	if err := o.Close(); err != nil {
		return fmt.Errorf("trace-convert: %w", err)
	}
	fmt.Fprintf(stdout, "converted %s: %d refs -> %s (workload %q seed %d)\n", in, m.Len(), out, name, seed)
	return nil
}

// importTrace loads a scenario file and registers it as the process-wide
// stream for its (workload, seed): experiments naming that workload at that
// seed replay the imported refs instead of the synthetic generator. The
// second result reports whether the name was already in the roster (i.e. a
// generator-backed stream was replaced rather than a new workload added).
// ImportFile keeps startup O(1): only the header is parsed here; the columns
// are checksummed and decoded when the first simulation replays them.
func importTrace(path string) (*trace.Materialized, bool, error) {
	m, err := trace.ImportFile(path)
	if err != nil {
		return nil, false, err
	}
	_, known := trace.ByName(m.Name())
	trace.RegisterShared(m)
	return m, known, nil
}

// run renders one experiment to w, reporting whether id was recognized.
// The registry drives it, so the CLI and the dspatchd service can never
// disagree about what an experiment id means.
func run(w io.Writer, id string, s experiments.Scale) bool {
	e, ok := experiments.ExperimentByID(id)
	if !ok {
		return false
	}
	e.Format(w, e.Run(s))
	return true
}
