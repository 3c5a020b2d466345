package main

import (
	"context"
	"math"
	"time"

	"dspatch/internal/experiments"
	"dspatch/internal/sim"
	"dspatch/internal/stats"
	"dspatch/internal/trace"
)

// The paper's single-thread headline aggregates (abstract and §6), the
// references of st-roster's fidelity errors.
const (
	paperSpeedupPct       = 6.0  // DSPatch+SPP over SPP
	paperMemIntSpeedupPct = 9.0  // same, memory-intensive workloads
	paperCoverageGainPct  = 15.0 // coverage gain over SPP
	paperMispredGainPct   = 6.5  // misprediction increase over SPP
)

// stream is one (workload, lane seed) reference stream a bench workload
// replays.
type stream struct {
	w    trace.Workload
	seed int64
	refs int
}

// jobStreams lists the streams of jobs, one entry per distinct
// (workload, lane seed) at the longest length asked for.
func jobStreams(jobs []experiments.Job) []stream {
	type key struct {
		name string
		seed int64
	}
	at := map[key]int{}
	var out []stream
	for _, j := range jobs {
		for lane, w := range j.Workloads {
			s := stream{w: w, seed: sim.LaneSeed(j.Opt.Seed, lane), refs: j.Opt.Refs}
			k := key{w.Name, s.seed}
			if i, ok := at[k]; ok {
				out[i].refs = max(out[i].refs, s.refs)
				continue
			}
			at[k] = len(out)
			out = append(out, s)
		}
	}
	return out
}

// materialize records every stream into the process-wide trace store.
func materialize(streams []stream) {
	for _, s := range streams {
		trace.Replay(s.w, s.seed, s.refs)
	}
}

// setupRuns performs the set-up reps times from a clean process state — an
// empty trace store and engine memo — and returns the median wall time. The
// state of the last rep is what the timed phase runs on; teardown, when
// non-nil, releases a rep's state before the next one and is not timed.
func setupRuns(reps int, hs *hostSpeed, setup func() error, teardown func()) (time.Duration, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		if i > 0 && teardown != nil {
			teardown()
		}
		trace.ResetShared()
		experiments.ResetMemo()
		hs.sample() // also collects the previous rep's garbage, outside the timing
		start := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(start)))
	}
	return time.Duration(median(ts)), nil
}

// headlineJobs are the jobs experiments.Headline runs, in its order: per
// workload the baseline, SPP, DSPatch+SPP and DSPatch.
func headlineJobs(ws []trace.Workload, refs int, seed int64) []experiments.Job {
	var jobs []experiments.Job
	for _, w := range ws {
		for _, pf := range []sim.PF{sim.PFNone, sim.PFSPP, sim.PFDSPatchSPP, sim.PFDSPatch} {
			o := stMachine(refs, seed)
			o.L2 = pf
			jobs = append(jobs, experiments.SingleJob(w, o))
		}
	}
	return jobs
}

// mp4Jobs are mp4-bwstarved's jobs: every mix under no L2 prefetcher, SPP and
// DSPatch+SPP.
func mp4Jobs(mixes [][]trace.Workload, refs int, seed int64) []experiments.Job {
	var jobs []experiments.Job
	for _, mix := range mixes {
		for _, pf := range []sim.PF{sim.PFNone, sim.PFSPP, sim.PFDSPatchSPP} {
			o := mpStarved(refs, seed)
			o.L2 = pf
			jobs = append(jobs, experiments.Job{Workloads: mix, Opt: o})
		}
	}
	return jobs
}

// timing is what a timed phase measured: the wall time of its units of
// work, the latency of every point it delivered, and the refs × lanes those
// points cover.
type timing struct {
	wall  time.Duration
	latMs []float64
	refs  int
}

// setEndToEnd fills the end-to-end metrics of a run whose set-up took setup
// and whose timed phase measured t, rescaling every time to the reference
// host by the run's host-speed factor (see hostSpeed): times scale by the
// factor, rates by its inverse. The unscaled values are kept for the report.
func (o *outcome) setEndToEnd(setup time.Duration, t timing, hs *hostSpeed) error {
	o.raw = map[string]float64{
		"setup_s":      setup.Seconds(),
		"refs_per_s":   float64(t.refs) / t.wall.Seconds(),
		"points_per_s": float64(len(t.latMs)) / t.wall.Seconds(),
		"point_p50_ms": percentile(t.latMs, 0.5),
		"point_p99_ms": percentile(t.latMs, 0.99),
	}
	f, err := hs.factor()
	if err != nil {
		return err
	}
	o.hostFactor = f
	o.metrics["setup_s"] = o.raw["setup_s"] * f
	o.metrics["refs_per_s"] = o.raw["refs_per_s"] / f
	o.metrics["points_per_s"] = o.raw["points_per_s"] / f
	o.metrics["point_p50_ms"] = o.raw["point_p50_ms"] * f
	// The tail is reported but not gated: in the simulator workloads fewer
	// than ten samples lie beyond it, and it reads a single engine call.
	o.extra["point_p99_ms"] = metric{Value: o.raw["point_p99_ms"] * f, Unit: "ms"}
	o.samples["point_p50_ms"], o.samples["point_p99_ms"] = len(t.latMs), len(t.latMs)
	return nil
}

// simPasses runs jobs group by group, one engine call per group, until at
// least d of measured time has passed, resetting the engine memo before each
// pass so every pass simulates. The caller waits for each call before the
// next, so a point's latency is its group's call. Host-speed probes run
// between calls, outside the measured time.
func simPasses(ctx context.Context, d time.Duration, groups [][]experiments.Job, hs *hostSpeed) (t timing, passes int, err error) {
	for passes == 0 || t.wall < d {
		experiments.ResetMemo()
		for _, g := range groups {
			if err := ctx.Err(); err != nil {
				return t, passes, err
			}
			hs.maybeSample()
			start := time.Now()
			if _, err := experiments.RunJobs(ctx, g, 1); err != nil {
				return t, passes, err
			}
			el := time.Since(start)
			t.wall += el
			for _, j := range g {
				t.latMs = append(t.latMs, ms(el))
				t.refs += j.Opt.Refs * len(j.Workloads)
			}
		}
		passes++
	}
	hs.sample()
	return t, passes, nil
}

// chunk splits jobs into consecutive groups of n.
func chunk(jobs []experiments.Job, n int) [][]experiments.Job {
	var out [][]experiments.Job
	for lo := 0; lo < len(jobs); lo += n {
		out = append(out, jobs[lo:min(lo+n, len(jobs))])
	}
	return out
}

// checkEvery spaces the serial re-runs of checkSimResults.
const checkEvery = 16

// checkSimResults verifies the last pass's results outside the timed phase:
// it re-reads them from the engine memo (which must not simulate), checks each
// result, and re-runs every checkEvery-th job serially through sim.Run, which
// must reproduce the batched engine's result bit for bit.
func checkSimResults(ctx context.Context, o *outcome, jobs []experiments.Job) ([]sim.Result, error) {
	before := experiments.EngineCounters()
	results, err := experiments.RunJobs(ctx, jobs, 1)
	if err != nil {
		return nil, err
	}
	sims := experiments.EngineCounters().Sims - before.Sims
	o.expect(sims == 0, "re-reading the pass's results simulated %d jobs", sims)
	d := newDigest()
	for i, r := range results {
		ok := validResult(r)
		if ok && i%checkEvery == 0 {
			ok = sameResult(r, sim.Run(jobs[i].Workloads, jobs[i].Opt))
		}
		o.expect(ok, "job %d (%s, %s): invalid result or differs from serial sim.Run", i, jobs[i].Workloads[0].Name, jobs[i].Opt.L2)
		d.result(r)
	}
	o.digest = d.String()
	return results, nil
}

func runSTRoster(ctx context.Context, cfg config) (*outcome, error) {
	all, _, err := roster()
	if err != nil {
		return nil, err
	}
	refs := cfg.size.stRefs
	jobs := headlineJobs(all, refs, cfg.seed)
	streams := jobStreams(jobs)
	hs, err := newHostSpeed(ctx)
	if err != nil {
		return nil, err
	}
	defer hs.close()
	setup, err := setupRuns(cfg.size.setupReps, hs, func() error {
		materialize(streams)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	// Each workload's four configs are one group: the engine advances them
	// in lockstep over one trace walk, as experiments.Headline schedules them.
	t, passes, err := simPasses(ctx, cfg.seconds, chunk(jobs, 4), hs)
	if err != nil {
		return nil, err
	}
	cfg.logf("  %d pass(es) of %d jobs, %.2f s measured", passes, len(jobs), t.wall.Seconds())
	o := newOutcome()
	if err := o.setEndToEnd(setup, t, hs); err != nil {
		return nil, err
	}

	// The headline aggregates the last pass's results, read from the memo.
	before := experiments.EngineCounters()
	h := experiments.Headline(experiments.Scale{Refs: refs, Seed: cfg.seed, Parallel: 1}.WithContext(ctx))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sims := experiments.EngineCounters().Sims - before.Sims
	o.expect(sims == 0, "experiments.Headline simulated %d jobs the pass had run", sims)
	o.expect(h.Dropped == 0, "headline dropped %d workloads with degenerate ratios", h.Dropped)
	if _, err := checkSimResults(ctx, o, jobs); err != nil {
		return nil, err
	}
	for k, v := range map[string]float64{
		"speedup_err_pp":        math.Abs(h.DSPatchSPPOverSPPPct - paperSpeedupPct),
		"memint_speedup_err_pp": math.Abs(h.DSPatchSPPOverSPPHotPct - paperMemIntSpeedupPct),
		"coverage_err_pp":       math.Abs(h.CoverageGainPct - paperCoverageGainPct),
		"mispred_err_pp":        math.Abs(h.MispredGainPct - paperMispredGainPct),
	} {
		o.extra[k] = metric{Value: v, Unit: "pp"}
	}
	cfg.logf("  headline: DSPatch+SPP over SPP %+.3f%% (paper +6), memory-intensive %+.3f%% (+9), coverage %+.3f pp (+15), mispredictions %+.3f pp (+6.5)",
		h.DSPatchSPPOverSPPPct, h.DSPatchSPPOverSPPHotPct, h.CoverageGainPct, h.MispredGainPct)
	return o, nil
}

func runMP4(ctx context.Context, cfg config) (*outcome, error) {
	_, memInt, err := roster()
	if err != nil {
		return nil, err
	}
	jobs := mp4Jobs(drawMixes(memInt, cfg.size.mpMixes), cfg.size.mpRefs, cfg.seed)
	streams := jobStreams(jobs)
	hs, err := newHostSpeed(ctx)
	if err != nil {
		return nil, err
	}
	defer hs.close()
	setup, err := setupRuns(cfg.size.setupReps, hs, func() error {
		materialize(streams)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	// Each mix's three configs are one group.
	t, passes, err := simPasses(ctx, cfg.seconds, chunk(jobs, 3), hs)
	if err != nil {
		return nil, err
	}
	cfg.logf("  %d pass(es) of %d 4-lane jobs, %.2f s measured", passes, len(jobs), t.wall.Seconds())
	o := newOutcome()
	if err := o.setEndToEnd(setup, t, hs); err != nil {
		return nil, err
	}
	results, err := checkSimResults(ctx, o, jobs)
	if err != nil {
		return nil, err
	}
	// Jobs come in (none, spp, dspatch+spp) triples per mix: every lane's
	// speedup ratio must be usable by the aggregates.
	var ratios []float64
	for i := 0; i+2 < len(results); i += 3 {
		ratios = append(ratios, sim.Speedup(results[i], results[i+1])...)
		ratios = append(ratios, sim.Speedup(results[i], results[i+2])...)
	}
	_, dropped := stats.FiniteRatios(ratios)
	o.expect(dropped == 0, "%d lane speedup ratios are degenerate", dropped)
	return o, nil
}
