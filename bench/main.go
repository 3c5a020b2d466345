// Command bench is the repository benchmark. It runs four bench workloads —
// traffic mixes over the simulator, the experiment engine and the dspatchd
// service — and prints their end-to-end metrics, or with -trace 1 a traced
// run's per-layer metrics. Each bench workload runs in its own child process,
// one at a time, so the engine memo, the materialized-trace store and peak RSS
// never carry over between them. See README.md for the workloads, the metrics
// and how to compare two sets of runs.
//
//	bash bench/run.sh                               # all four workloads
//	bash bench/run.sh -workload st-roster -seed 2   # one workload
//	bash bench/run.sh -workload mp4-bwstarved -trace 1
//	bash bench/run.sh -compare base.ndjson new.ndjson
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// size scales a bench workload. fullSize is the benchmark; the smoke test
// runs a much smaller one.
type size struct {
	stRefs        int // refs per st-roster run
	mpMixes       int // mp4-bwstarved mixes
	mpRefs        int // refs per lane of an mp4-bwstarved run
	svcRefs       int // refs per campaign point
	svcMinPoints  int // svc-cold runs at least this many points
	warmCampaigns int // campaigns svc-warm resubmits each round
	setupReps     int // set-ups per run; setup_s is their median
}

var fullSize = size{
	stRefs: 100_000, mpMixes: 24, mpRefs: 50_000, svcRefs: 5_000,
	svcMinPoints: 1500, warmCampaigns: 18, setupReps: 3,
}

type config struct {
	seed    int64
	seconds time.Duration
	size    size
	spanDir string    // traced runs write their span files here
	log     io.Writer // human-readable progress and report
}

func (c config) logf(format string, args ...any) { fmt.Fprintf(c.log, format+"\n", args...) }

// outcome is what one bench workload run measured.
type outcome struct {
	checks
	metrics    map[string]float64
	raw        map[string]float64 // end-to-end times before host-speed rescaling
	hostFactor float64            // the rescaling factor (see hostSpeed)
	samples    map[string]int     // sample count behind each latency metric
	// extra holds values the run reports that BENCHMARK.json does not list:
	// st-roster's fidelity errors and every run's point_p99_ms.
	extra  map[string]metric
	digest string // hash of every result's bits
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}, extra: map[string]metric{}}
}

// workload is one bench workload; BENCHMARK.json and README.md say why each
// was chosen.
type workload struct {
	name  string
	procs int // GOMAXPROCS of its child process
	run   func(ctx context.Context, cfg config) (*outcome, error)
	trace func(ctx context.Context, cfg config) (*outcome, error)
}

var workloads = []workload{
	{name: "st-roster", procs: 1, run: runSTRoster, trace: traceSTRoster},
	{name: "mp4-bwstarved", procs: 1, run: runMP4, trace: traceMP4},
	{name: "svc-cold", procs: 2, run: runSvcCold, trace: traceSvcCold},
	{name: "svc-warm", procs: 2, run: runSvcWarm, trace: traceSvcWarm},
}

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every end-to-end run prints; perLayer those every
// traced run prints. BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"refs_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"point_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"trace.next_ns", "ns"},
	{"trace.materialize_s", "s"},
	{"trace.streams", "count"},
	{"cpu.self_ns_per_ref", "ns"},
	{"memsys.access_self_ns", "ns"},
	{"memsys.accesses", "count"},
	{"memsys.l1_hit_rate", "ratio"},
	{"memsys.l2_hit_rate", "ratio"},
	{"memsys.llc_hit_rate", "ratio"},
	{"memsys.coverage", "ratio"},
	{"memsys.prefetch_accuracy", "ratio"},
	{"prefetch.l1.train_ns", "ns"},
	{"prefetch.l1.reqs_per_train", "reqs/train"},
	{"spp.train_ns", "ns"},
	{"spp.reqs_per_train", "reqs/train"},
	{"core.train_ns", "ns"},
	{"core.reqs_per_train", "reqs/train"},
	{"core.pb_hit_rate", "ratio"},
	{"core.covp_share", "ratio"},
	{"core.accp_share", "ratio"},
	{"core.bw_q3_share", "ratio"},
	{"dram.reads_per_kref", "reads/kref"},
	{"dram.row_hit_rate", "ratio"},
	{"dram.busy_frac", "ratio"},
	{"dram.queue_cycles_per_req", "cycles"},
	{"dram.avg_bw_gbps", "GB/s"},
	{"sim.ns_per_ref.none", "ns"},
	{"sim.ns_per_ref.spp", "ns"},
	{"sim.ns_per_ref.dspatch", "ns"},
	{"sim.ns_per_ref.dspatch_spp", "ns"},
	{"sim.machine_setup_us", "us"},
	{"experiments.engine_overhead_frac", "ratio"},
	{"experiments.sims", "count"},
	{"experiments.batches", "count"},
	{"experiments.memo_hits", "count"},
	{"experiments.disk_hits", "count"},
	{"experiments.parallel_speedup", "x"},
	{"sweep.engine_run_ms", "ms"},
	{"sweep.store_put_us", "us"},
	{"sweep.store_puts", "count"},
	{"service.submit_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.job_run_ms", "ms"},
	{"service.stream_overhead_ms", "ms"},
	{"service.rejected_503", "count"},
	{"bench.trace_overhead", "x"},
}

// metric and result are the wire form of one run: result is the JSON object
// the run's last stdout line carries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run as -out stores it and -compare reads it: the result plus
// what does not fit the result object.
type record struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      int                `json:"trace"`
	Result     result             `json:"result"`
	Raw        map[string]float64 `json:"raw,omitempty"`
	HostFactor float64            `json:"host_factor,omitempty"`
	Digest     string             `json:"result_digest,omitempty"`
	FailedFrac float64            `json:"failed_frac"`
	Extra      map[string]metric  `json:"extra,omitempty"`
	Samples    map[string]int     `json:"samples,omitempty"`
	Notes      []string           `json:"notes,omitempty"`
}

func main() {
	if serveProbe() {
		return
	}
	log := os.Stderr
	wl := flag.String("workload", "", "bench workload to run: st-roster, mp4-bwstarved, svc-cold or svc-warm (default all four)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "minimum length of each timed phase, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics; 0 prints end-to-end metrics")
	out := flag.String("out", "", "append each run's record as one JSON line to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -out files: -compare BASE NEW")
	child := flag.Bool("child", false, "run one workload in this process (the parent sets this)")
	flag.Parse()

	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(log, "bench:", err)
		os.Exit(1)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(log, "bench: -compare needs two record files")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(log, "bench:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || *traced < 0 || *traced > 1 || *seconds <= 0 {
		fmt.Fprintln(log, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-out FILE]")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *wl == "" || *wl == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(log, "bench: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		size:    fullSize,
		spanDir: filepath.Join(root, "bench", "out"),
		log:     log,
	}
	if *child {
		if len(selected) != 1 {
			fmt.Fprintln(log, "bench: -child runs exactly one workload")
			os.Exit(2)
		}
		if err := runChild(selected[0], cfg, *traced == 1); err != nil {
			fmt.Fprintf(log, "bench: %s: %v\n", selected[0].name, err)
			os.Exit(1)
		}
		return
	}
	for _, w := range selected {
		rec, err := spawn(w, *seed, *seconds, *traced)
		if err != nil {
			fmt.Fprintf(log, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(log, "bench:", err)
				os.Exit(1)
			}
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fmt.Fprintln(log, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// repoRoot finds the repository root from the working directory: the root
// itself (bench/run.sh runs there) or bench/ (go run . from the package).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/")
}

// childTimeout bounds one bench workload's child process.
const childTimeout = 175 * time.Second

// spawn runs one bench workload in a child process with its GOMAXPROCS and
// returns the record the child printed.
func spawn(w workload, seed int64, seconds float64, traced int) (record, error) {
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(traced))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(w.procs, runtime.NumCPU())))
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return record{}, fmt.Errorf("child process: %w", err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var rec record
	if err := json.Unmarshal(lines[len(lines)-1], &rec); err != nil {
		return record{}, fmt.Errorf("child output: %w", err)
	}
	return rec, nil
}

// runChild runs one bench workload in this process and prints its record as
// the last line of stdout.
func runChild(w workload, cfg config, traced bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	fn, defs := w.run, endToEnd
	if traced {
		fn, defs = w.trace, perLayer
	}
	cfg.logf("== %s (seed %d, GOMAXPROCS %d, %s run)", w.name, cfg.seed, runtime.GOMAXPROCS(0), map[bool]string{false: "end-to-end", true: "traced"}[traced])
	o, err := fn(ctx, cfg)
	if err != nil {
		return err
	}
	if !traced {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		o.metrics["peak_rss_mb"] = rss
	}
	rec, err := newRecord(w.name, cfg.seed, traced, o, defs)
	if err != nil {
		return err
	}
	report(cfg.log, rec, defs)
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// newRecord assembles a run's record, insisting that every listed metric was
// measured and is a finite number.
func newRecord(name string, seed int64, traced bool, o *outcome, defs []metricDef) (record, error) {
	rec := record{
		Workload: name, Seed: seed, Digest: o.digest, Extra: o.extra,
		Raw: o.raw, HostFactor: o.hostFactor, Samples: o.samples, Notes: o.notes,
		Result: result{
			Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
			Metrics: map[string]metric{},
		},
	}
	if traced {
		rec.Trace = 1
	}
	if o.attempted > 0 {
		rec.FailedFrac = float64(o.failed) / float64(o.attempted)
	} else {
		return rec, errors.New("the run attempted nothing")
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok || !finite(v) {
			return rec, fmt.Errorf("metric %s was not measured (got %v)", d.name, v)
		}
		rec.Result.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return rec, nil
}

func report(w io.Writer, rec record, defs []metricDef) {
	fmt.Fprintf(w, "-- %s seed %d\n", rec.Workload, rec.Seed)
	for _, d := range defs {
		m := rec.Result.Metrics[d.name]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", d.name, m.Value, m.Unit)
		if v, ok := rec.Raw[d.name]; ok {
			line += fmt.Sprintf("  unscaled %.6g", v)
		}
		if n, ok := rec.Samples[d.name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
	for _, k := range extraNames([]record{rec}) {
		m := rec.Extra[k]
		line := fmt.Sprintf("  %-34s %14.6g %-6s", k, m.Value, m.Unit)
		if v, ok := rec.Raw[k]; ok {
			line += fmt.Sprintf("  unscaled %.6g", v)
		}
		fmt.Fprintln(w, line+"  (not gated)")
	}
	if rec.HostFactor != 0 {
		fmt.Fprintf(w, "  %-34s %14.6g (times are scaled by it to the reference host)\n", "host_factor", rec.HostFactor)
	}
	if rec.Digest != "" {
		fmt.Fprintf(w, "  %-34s %14s\n", "result_digest", rec.Digest)
	}
	fmt.Fprintf(w, "  %-34s %14.6g (%d of %d operations failed)\n", "failed_frac", rec.FailedFrac, rec.Result.Failed, rec.Result.Attempted)
	for _, n := range rec.Notes {
		fmt.Fprintln(w, "  FAILED:", n)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads the records of an -out file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
