package main

import (
	"fmt"
	"math/rand"
	"slices"

	"dspatch/internal/dram"
	"dspatch/internal/sim"
	"dspatch/internal/sweep"
	"dspatch/internal/trace"
)

// pinned is the builtin trace-workload roster the bench workloads draw from,
// in registration order, with each member's memory-intensive flag. Pinning it
// here means registering a new scenario cannot silently change what a bench
// workload runs: roster fails the run instead, and the pin is updated in the
// same change that adds the scenario.
var pinned = []struct {
	name   string
	memInt bool
}{
	// Client
	{"7zip-comp", true}, {"7zip-decomp", false}, {"vp9-encode", true}, {"vp9-decode", false},
	{"client-photo", false}, {"client-browser", false},
	// Server
	{"tpcc", true}, {"specjbb", true}, {"specjenterprise", false}, {"spark-pagerank", true},
	{"server-kv", false}, {"server-web", false}, {"server-mail", false}, {"server-olap", true},
	// HPC
	{"linpack", true}, {"npb-cg", true}, {"npb-mg", true}, {"npb-ft", true},
	{"parsec-fluid", true}, {"parsec-stream", true}, {"accel-lbm", true}, {"mpi-bt", false},
	{"hpc-fem", false}, {"hpc-md", false},
	// FSPEC06
	{"sphinx3", true}, {"soplex", true}, {"gemsfdtd", true}, {"lbm06", true},
	{"milc", false}, {"leslie3d", true}, {"cactus", false}, {"namd06", false}, {"povray06", false},
	// ISPEC06
	{"mcf", true}, {"omnetpp06", true}, {"gcc06", true}, {"libquantum", true},
	{"bzip2", false}, {"astar", false}, {"xalanc06", true}, {"hmmer", false},
	// FSPEC17
	{"lbm17", true}, {"cam4", true}, {"pop2", true}, {"roms", true}, {"fotonik3d", true},
	{"cactuBSSN", false}, {"nab", false}, {"namd17", false}, {"povray17", false}, {"wrf", true},
	// ISPEC17
	{"omnetpp17", true}, {"xalancbmk17", true}, {"leela", false}, {"exchange2", false},
	{"deepsjeng", true}, {"mcf17", true}, {"x264", false}, {"gcc17", true},
	// Cloud
	{"bigbench", true}, {"cassandra", true}, {"hbase", true}, {"kmeans", true},
	{"hadoop-stream", true}, {"cloud-sort", false}, {"cloud-etl", false}, {"cloud-index", false},
	// SYSmark
	{"sysmark-excel", true}, {"sysmark-word", false}, {"sysmark-photoshop", true},
	{"sysmark-sketchup", true}, {"sysmark-ppt", false}, {"sysmark-outlook", false},
	{"sysmark-media", false}, {"sysmark-browse", false},
	// Irregular
	{"ll-walk-small", false}, {"ll-walk-large", true}, {"tree-search-shallow", false},
	{"tree-search-deep", true}, {"hash-probe-sparse", true}, {"hash-probe-dense", true},
	{"graph-walk-mix", true}, {"kv-probe-mix", false},
}

// roster resolves the pinned names against the live registry. It fails when
// a pinned name is missing, its memory-intensive flag changed, or the
// registry holds a workload the pin does not: experiments.Headline always runs
// the whole registry, so any difference would change st-roster silently.
func roster() (all, memInt []trace.Workload, err error) {
	live := trace.Workloads()
	if len(live) != len(pinned) {
		return nil, nil, fmt.Errorf("roster: registry holds %d workloads, the bench pins %d", len(live), len(pinned))
	}
	for i, p := range pinned {
		w, ok := trace.ByName(p.name)
		if !ok {
			return nil, nil, fmt.Errorf("roster: pinned workload %q is not registered", p.name)
		}
		if w.MemIntensive != p.memInt {
			return nil, nil, fmt.Errorf("roster: %q memory-intensive flag is %v, the bench pins %v", p.name, w.MemIntensive, p.memInt)
		}
		if live[i].Name != p.name {
			return nil, nil, fmt.Errorf("roster: registry position %d holds %q, the bench pins %q", i, live[i].Name, p.name)
		}
		all = append(all, w)
		if w.MemIntensive {
			memInt = append(memInt, w)
		}
	}
	return all, memInt, nil
}

// drawSeed fixes which workloads the bench workloads group together — the
// mp4-bwstarved mixes and the campaigns' workload sets. The -seed flag picks
// the reference streams they replay. Which workloads share a machine moves a
// run's cost by more than a tenth, so drawing the groups from -seed would make
// runs of different seeds measure different amounts of work.
const drawSeed = 1

// drawMixes deals n heterogeneous 4-lane mixes (four distinct workloads each)
// from pool. Lanes come from successive shuffles of the whole pool, so every
// workload fills about the same number of lanes.
func drawMixes(pool []trace.Workload, n int) [][]trace.Workload {
	rng := rand.New(rand.NewSource(drawSeed))
	var deck []int
	out := make([][]trace.Workload, n)
	for i := range out {
		for len(out[i]) < 4 {
			// The first card not already in this mix; when the deck holds
			// none, the next shuffle is dealt after it.
			fits := func(c int) bool {
				return !slices.ContainsFunc(out[i], func(w trace.Workload) bool { return w.Name == pool[c].Name })
			}
			k := slices.IndexFunc(deck, fits)
			for k < 0 {
				deck = append(deck, rng.Perm(len(pool))...)
				k = slices.IndexFunc(deck, fits)
			}
			out[i] = append(out[i], pool[deck[k]])
			deck = slices.Delete(deck, k, k+1)
		}
	}
	return out
}

// Machines of the bench workloads.
func stMachine(refs int, seed int64) sim.Options {
	o := sim.DefaultST()
	o.Refs, o.Seed = refs, seed
	return o
}

// mpStarved is the paper's 4-core machine (shared 8 MB LLC) on one DDR4-2133
// channel instead of two: the regime where DRAM utilization reaches the top
// quartile and DSPatch's bandwidth-adaptive selection matters.
func mpStarved(refs int, seed int64) sim.Options {
	return sim.Options{DRAM: dram.DDR4(1, 2133), LLCBytes: 8 << 20, Refs: refs, Seed: seed}
}

// Campaign pool of the service workloads.
const (
	campaignWorkloads = 4 // trace workloads per campaign
	campaignSeeds     = 2 // point seeds per campaign
)

var campaignL2 = []string{string(sim.PFNone), string(sim.PFSPP), string(sim.PFDSPatchSPP)}

// pointsPerCampaign is the record count of one pool campaign.
var pointsPerCampaign = campaignWorkloads * campaignSeeds * len(campaignL2)

// The nine machines (LLC size × DRAM speed) pool campaigns run on.
var (
	campaignLLCs = [...]int{1 << 20, 2 << 20, 4 << 20}
	campaignMTps = [...]int{1600, 2133, 2400}
)

const (
	numMachines = len(campaignLLCs) * len(campaignMTps)
	// poolRound is the pool's period: two campaigns on every machine.
	poolRound = 2 * numMachines
)

// campaignPool returns the first n campaigns of a pool whose points replay
// streams of seed. The pool comes in rounds of eighteen campaigns: eighteen
// fixed groups of four workloads (one shuffle of the roster), two on each
// machine. Round r moves group c to machine (c + r) mod 9, and every nine
// rounds the pool moves to a new pair of point seeds. So every round runs the
// same workloads on the same machines and costs about the same — a run that
// gets further through the pool meets no cheaper work — while no two
// campaigns share a simulation, so every point of a cold run simulates, and
// the streams (workload, point seed) stay few.
func campaignPool(all []trace.Workload, n int, refs int, seed int64) []sweep.Campaign {
	perm := rand.New(rand.NewSource(drawSeed)).Perm(len(all))
	out := make([]sweep.Campaign, n)
	for i := range out {
		r, c := i/poolRound, i%poolRound
		m, pair := (c+r)%numMachines, int64(r/numMachines)
		var mix []sweep.Mix
		for _, w := range perm[c*campaignWorkloads : (c+1)*campaignWorkloads] {
			mix = append(mix, sweep.Mix{all[w].Name})
		}
		out[i] = sweep.Campaign{
			Name: fmt.Sprintf("bench-%d-%d", seed, i),
			Base: sweep.Point{Refs: refs, LLCBytes: campaignLLCs[m%3], DRAMMTps: campaignMTps[m/3]},
			// Nonzero point seeds: sweep.Point treats seed 0 as "default 1".
			Axes: sweep.Axes{Workloads: mix, Seeds: []int64{seed*1000 + 2*pair + 1, seed*1000 + 2*pair + 2}, L2: campaignL2},
		}
	}
	return out
}
