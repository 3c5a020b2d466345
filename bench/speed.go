package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared: over minutes its speed drifts by
// a third or more, which no amount of work per run averages out. hostSpeed
// tracks that drift with a fixed probe, timed between units of measured work.
// The probe has three kernels, each feeling a different kind of contention: a
// cache model (a 16-way LRU table walked by a mixed address stream, branchy
// and table-heavy like the simulator) feels contention for caches and memory,
// a dependent multiply chain feels the core's clock, and JSON round trips feel
// contention for the front end and the allocator, as the service does. None is
// code a change to the repository can speed up. Reported times are rescaled by
// the run's host factor, the geometric mean of reference time ÷ median probe
// time over the three kernels: a run on a host slowed by half reports what the
// same work takes on the reference host, while a change that speeds up the
// measured code still shows in full. Of the kernels tried, these three
// together followed the bench workloads' own slowdowns most closely (see
// README.md).
//
// The probe runs in a process of its own, started once per run with the
// workload's GOMAXPROCS, so it shares no runtime — heap, collector, scheduler
// — with the code it rescales. Before each probe the measured process
// collects its garbage and has no work in flight (callers probe only between
// units, after every engine call has returned or every job of a service round
// has been seen done), so a regression in the measured code cannot slow the
// probe and cancel itself out.
type hostSpeed struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	last time.Time
	// Probe timings, in ms, one entry per probe for each kernel.
	cache, alu, json []float64
	err              error // the first failed probe
}

const (
	cacheSets   = 4096
	cacheWays   = 16
	cacheRefs   = 400_000   // cache-model accesses per probe
	aluSteps    = 6_000_000 // multiply-chain steps per probe
	probeRounds = 400       // JSON round trips per probe
	// The kernels' times on the reference host, a 2-core Intel Xeon VM at
	// the fast end of what the baseline's host delivered.
	cacheRefMs = 22.0
	aluRefMs   = 12.0
	jsonRefMs  = 12.0
	// probeEvery spaces probes out: measured work between two probes is at
	// least this long, so the probes cost about a tenth of a run's duration.
	probeEvery = 500 * time.Millisecond
	// probeEnv, set in a process's environment, makes the process the probe
	// for that many procs (see serveProbe).
	probeEnv = "DSPATCH_BENCH_PROBE"
)

// newHostSpeed starts the probe process.
func newHostSpeed(ctx context.Context) (*hostSpeed, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	procs := strconv.Itoa(runtime.GOMAXPROCS(0))
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), probeEnv+"="+procs, "GOMAXPROCS="+procs)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("probe process: %w", err)
	}
	return &hostSpeed{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// close stops the probe process and waits for it to exit. Its exit status
// does not matter: every answer it gave was already read and parsed.
func (h *hostSpeed) close() {
	h.in.Close()
	h.cmd.Wait()
}

// sample collects this process's garbage, so no collector work runs beside
// the probe, and times the probe once on every proc at the same time.
func (h *hostSpeed) sample() {
	if h.err != nil {
		return
	}
	runtime.GC()
	var cacheMs, aluMs, jsonMs float64
	_, err := io.WriteString(h.in, "\n")
	if err == nil {
		var line string
		if line, err = h.out.ReadString('\n'); err == nil {
			_, err = fmt.Sscan(line, &cacheMs, &aluMs, &jsonMs)
		}
	}
	if err != nil {
		h.err = fmt.Errorf("probe process: %w", err)
		return
	}
	h.cache = append(h.cache, cacheMs)
	h.alu = append(h.alu, aluMs)
	h.json = append(h.json, jsonMs)
	h.last = time.Now()
}

// maybeSample samples unless a probe ran within probeEvery.
func (h *hostSpeed) maybeSample() {
	if time.Since(h.last) >= probeEvery {
		h.sample()
	}
}

// factor converts a wall time measured during the run into reference-host
// time.
func (h *hostSpeed) factor() (float64, error) {
	if len(h.cache) == 0 {
		h.sample()
	}
	if h.err != nil {
		return 0, h.err
	}
	return math.Cbrt(cacheRefMs / median(h.cache) * aluRefMs / median(h.alu) * jsonRefMs / median(h.json)), nil
}

// serveProbe reports whether this process was started as a probe process, and
// if so serves probes until its input closes: each input line runs every
// kernel once on every proc and answers with the kernels' times, in ms.
func serveProbe() bool {
	v, ok := os.LookupEnv(probeEnv)
	if !ok {
		return false
	}
	procs, err := strconv.Atoi(v)
	if err == nil && procs < 1 {
		err = errors.New("needs at least one proc")
	}
	if err == nil {
		err = probeLoop(procs, os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench probe:", err)
		os.Exit(1)
	}
	return true
}

func probeLoop(procs int, in io.Reader, out io.Writer) error {
	// One cache model per proc, so a workload spread over two procs is probed
	// on both.
	models := make([]cacheModel, procs)
	for i := range models {
		models[i] = newCacheModel()
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		cacheMs := onEach(procs, func(i int) { models[i].run(uint64(i)) })
		aluMs := onEach(procs, func(i int) { aluChain(uint64(i)) })
		jsonMs := onEach(procs, func(int) { jsonRoundTrips() })
		// Collect the round trips' garbage before answering, so none of this
		// process's work overlaps the measured work that follows.
		runtime.GC()
		if _, err := fmt.Fprintf(out, "%g %g %g\n", cacheMs, aluMs, jsonMs); err != nil {
			return err
		}
	}
	return sc.Err()
}

// onEach runs f(0), …, f(n-1) at the same time and returns the wall time, in
// ms, until all have returned.
func onEach(n int, f func(i int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
	return ms(time.Since(start))
}

// kernelSink keeps the kernels' results from being optimized away.
var kernelSink atomic.Uint64

// cacheModel is the probe's cache kernel: a cacheSets × cacheWays LRU table
// of line tags with per-way ages.
type cacheModel struct {
	tags []uint64
	ages []uint8
}

func newCacheModel() cacheModel {
	return cacheModel{tags: make([]uint64, cacheSets*cacheWays), ages: make([]uint8, cacheSets*cacheWays)}
}

// run empties the table and feeds it cacheRefs lines from an xorshift
// stream, half sequential, a quarter just behind the sequential front and a
// quarter random over 2^20 lines, so every probe does the same work.
func (c cacheModel) run(seed uint64) {
	clear(c.tags)
	clear(c.ages)
	state := 0x9e3779b97f4a7c15 + seed
	const base = 1 << 20
	var hits, front uint64
	for n := 0; n < cacheRefs; n++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		var line uint64
		switch state & 3 {
		case 0, 1:
			front++
			line = base + front
		case 2:
			line = (state >> 8) & (base - 1)
		default:
			line = base + front - (state>>8)&63
		}
		set := int(line%cacheSets) * cacheWays
		tags, ages := c.tags[set:set+cacheWays], c.ages[set:set+cacheWays]
		way := -1
		for w, t := range tags {
			if t == line {
				way = w
				break
			}
		}
		if way >= 0 {
			hits++
		} else {
			way = 0
			for w, a := range ages {
				if a > ages[way] {
					way = w
				}
			}
			tags[way] = line
		}
		for w, a := range ages {
			if a < math.MaxUint8 {
				ages[w] = a + 1
			}
		}
		ages[way] = 0
	}
	kernelSink.Store(hits)
}

// aluChain is the probe's clock kernel: a dependent multiply–xor chain that
// touches no memory.
func aluChain(seed uint64) {
	x := seed + 1
	for n := 0; n < aluSteps; n++ {
		x = x*0x5851f42d4c957f2d + 0x14057b7ef767814f
		x ^= x >> 29
	}
	kernelSink.Store(x)
}

// probeRecord is the value the probe's JSON round trips encode and decode.
type probeRecord struct {
	Values []float64
	Counts map[string]int
	Name   string
}

var probeValue = func() probeRecord {
	r := probeRecord{Values: make([]float64, 64), Counts: map[string]int{}, Name: "probe"}
	for i := range r.Values {
		r.Values[i] = float64(i) * 1.5
	}
	for i := 0; i < 16; i++ {
		r.Counts["k"+strconv.Itoa(i)] = i
	}
	return r
}()

func jsonRoundTrips() {
	for i := 0; i < probeRounds; i++ {
		b, err := json.Marshal(probeValue)
		if err != nil {
			panic(err) // a fixed, encodable value
		}
		var out probeRecord
		if err := json.Unmarshal(b, &out); err != nil {
			panic(err)
		}
	}
}
