package experiments

import (
	"sort"

	"dspatch/internal/dram"
	"dspatch/internal/memaddr"
	"dspatch/internal/sim"
	"dspatch/internal/sms"
	"dspatch/internal/stats"
	"dspatch/internal/trace"
)

// Fig1 regenerates paper Fig. 1: BOP/SMS/SPP performance deltas across six
// DRAM bandwidth points, showing that none scales with bandwidth.
func Fig1(s Scale) ScalingResult {
	return bandwidthSweep(s.workloads(), s, []sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP})
}

// Fig4 regenerates paper Fig. 4: per-category performance of BOP, SMS and
// SPP on a single channel of DDR4-2133.
func Fig4(s Scale) CategoryResult {
	return categorySweep(s.workloads(), s, s.stOptions(), []sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP})
}

// Fig5Row is one point of the SMS storage sweep.
type Fig5Row struct {
	PHTEntries int
	StorageKB  float64
	DeltaPct   float64
}

// Fig5 regenerates paper Fig. 5: SMS performance as its pattern history
// table shrinks from 16K entries (88KB) to 256 (3.5KB). The baseline does
// not depend on the PHT size, so the memo runs it once per workload across
// the whole sweep.
func Fig5(s Scale) []Fig5Row {
	ws := s.workloads()
	sweep := []int{16 << 10, 4 << 10, 1 << 10, 256}
	var jobs []Job
	for _, entries := range sweep {
		opt := s.stOptions()
		opt.SMSPHTEntries = entries
		for _, w := range ws {
			base := opt
			base.L2 = sim.PFNone
			jobs = append(jobs, SingleJob(w, base))
			with := opt
			with.L2 = sim.PFSMS
			jobs = append(jobs, SingleJob(w, with))
		}
	}
	results := s.runAll(jobs)

	var out []Fig5Row
	k := 0
	for _, entries := range sweep {
		var ratios []float64
		for range ws {
			ratios = append(ratios, sim.Speedup(results[k], results[k+1])[0])
			k += 2
		}
		kb := float64(sms.New(sms.DefaultConfig().WithPHTEntries(entries)).StorageBits()) / 8192
		out = append(out, Fig5Row{PHTEntries: entries, StorageKB: kb,
			DeltaPct: stats.GeomeanSpeedupPct(ratios)})
	}
	return out
}

// Fig6 regenerates paper Fig. 6: Fig. 1 plus the bandwidth-aware eSPP and
// eBOP variants — still poor scaling.
func Fig6(s Scale) ScalingResult {
	return bandwidthSweep(s.workloads(), s,
		[]sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP, sim.PFESPP, sim.PFEBOP})
}

// Fig11aResult is the delta-occurrence distribution of paper Fig. 11a.
type Fig11aResult struct {
	PlusOne  float64
	MinusOne float64
	TwoThree float64 // |delta| in {2,3}
	Other    float64
}

// Fig11a measures the distribution of consecutive in-page cache-line deltas
// across the workload roster, reproducing the +1/−1 dominance that
// justifies 128B-granularity compression.
func Fig11a(s Scale) Fig11aResult {
	var res Fig11aResult
	var total float64
	for _, w := range s.workloads() {
		if s.context().Err() != nil {
			break // canceled via WithContext; partial result is discarded
		}
		g := w.Build(s.Seed)
		lastOff := map[memaddr.Page]int{}
		var r trace.Ref
		for i := 0; i < s.Refs; i++ {
			g.Next(&r)
			page := r.Line.Page()
			off := r.Line.PageOffset()
			if prev, ok := lastOff[page]; ok && off != prev {
				d := off - prev
				total++
				switch {
				case d == 1:
					res.PlusOne++
				case d == -1:
					res.MinusOne++
				case d == 2 || d == -2 || d == 3 || d == -3:
					res.TwoThree++
				default:
					res.Other++
				}
			}
			lastOff[page] = off
			if len(lastOff) > 4096 {
				lastOff = map[memaddr.Page]int{}
			}
		}
	}
	if total > 0 {
		res.PlusOne /= total
		res.MinusOne /= total
		res.TwoThree /= total
		res.Other /= total
	}
	return res
}

// Fig11b regenerates paper Fig. 11b: the distribution of per-page-generation
// misprediction rates induced by 128B-granularity compression. Buckets:
// exactly 0%, (0,12.5%], (12.5,25%], (25,37.5%], (37.5,50%), exactly 50%.
func Fig11b(s Scale) [6]float64 {
	ws := s.workloads()
	jobs := make([]Job, len(ws))
	for i, w := range ws {
		opt := s.stOptions()
		opt.L2 = sim.PFDSPatch
		opt.CollectStats = true // DSPatch reports the histogram as telemetry
		jobs[i] = SingleJob(w, opt)
	}
	var hist [6]uint64
	for _, r := range s.runAll(jobs) {
		// A canceled run carries no telemetry, and an all-zero histogram
		// is omitted from it; either contributes nothing.
		for _, st := range r.Prefetchers {
			if st.Name == "dspatch" {
				for i, v := range st.Histograms["compression_mispred"].Counts {
					hist[i] += v
				}
			}
		}
	}
	var total float64
	for _, v := range hist {
		total += float64(v)
	}
	var out [6]float64
	if total == 0 {
		return out
	}
	for i, v := range hist {
		out[i] = float64(v) / total
	}
	return out
}

// Fig12 regenerates paper Fig. 12: single-thread per-category performance of
// BOP, SMS, SPP, DSPatch and DSPatch+SPP.
func Fig12(s Scale) CategoryResult {
	return categorySweep(s.workloads(), s, s.stOptions(),
		[]sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP, sim.PFDSPatch, sim.PFDSPatchSPP})
}

// Fig13Row is one workload of the memory-intensive line graph.
type Fig13Row struct {
	Workload string
	Category trace.Category
	SMS      float64
	SPP      float64
	DSPatchS float64 // DSPatch+SPP
}

// Fig13 regenerates paper Fig. 13: per-workload deltas of SMS, SPP and
// DSPatch+SPP over the 42 memory-intensive workloads, sorted by DSPatch+SPP.
func Fig13(s Scale) []Fig13Row {
	ws := s.memIntensive()
	pfs := []sim.PF{sim.PFSMS, sim.PFSPP, sim.PFDSPatchSPP}
	var jobs []Job
	for _, w := range ws {
		opt := s.stOptions()
		base := opt
		base.L2 = sim.PFNone
		jobs = append(jobs, SingleJob(w, base))
		for _, pf := range pfs {
			with := opt
			with.L2 = pf
			jobs = append(jobs, SingleJob(w, with))
		}
	}
	results := s.runAll(jobs)

	var out []Fig13Row
	k := 0
	for _, w := range ws {
		b := results[k]
		deltas := make([]float64, len(pfs))
		for i := range pfs {
			deltas[i] = stats.SpeedupPct(sim.Speedup(b, results[k+1+i])[0])
		}
		k += 1 + len(pfs)
		out = append(out, Fig13Row{
			Workload: w.Name,
			Category: w.Category,
			SMS:      deltas[0],
			SPP:      deltas[1],
			DSPatchS: deltas[2],
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DSPatchS < out[j].DSPatchS })
	return out
}

// Fig14 regenerates paper Fig. 14: adjunct prefetchers to SPP — BOP+SPP,
// iso-storage SMS+SPP and DSPatch+SPP against standalone SPP.
func Fig14(s Scale) CategoryResult {
	return categorySweep(s.workloads(), s, s.stOptions(),
		[]sim.PF{sim.PFSPP, sim.PFBOPSPP, sim.PFSMS256SPP, sim.PFDSPatchSPP})
}

// Fig15 regenerates paper Fig. 15: bandwidth scaling of BOP, SMS, SPP,
// eBOP+SPP and DSPatch+SPP — only DSPatch+SPP rides the bandwidth curve.
func Fig15(s Scale) ScalingResult {
	return bandwidthSweep(s.workloads(), s,
		[]sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP, sim.PFEBOPSPP, sim.PFDSPatchSPP})
}

// Fig16Row is one prefetcher × category cell of the coverage figure.
type Fig16Row struct {
	Prefetcher sim.PF
	Category   trace.Category
	Covered    float64 // fraction of would-be L2 misses covered
	Uncovered  float64
	Mispred    float64 // unused prefetches, same denominator
}

// Fig16 regenerates paper Fig. 16: coverage, uncovered and misprediction
// fractions per category for BOP, SMS, SPP and DSPatch+SPP, plus the AVG
// rows (category "AVG").
func Fig16(s Scale) []Fig16Row {
	pfs := []sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP, sim.PFDSPatchSPP}
	ws := s.workloads()
	var jobs []Job
	for _, cat := range trace.Categories {
		for _, pf := range pfs {
			for _, w := range ws {
				if w.Category != cat {
					continue
				}
				opt := s.stOptions()
				opt.L2 = pf
				jobs = append(jobs, SingleJob(w, opt))
			}
		}
	}
	results := s.runAll(jobs)

	var out []Fig16Row
	type agg struct{ cov, mis, n float64 }
	total := map[sim.PF]*agg{}
	for _, pf := range pfs {
		total[pf] = &agg{}
	}
	k := 0
	for _, cat := range trace.Categories {
		for _, pf := range pfs {
			var covs, miss []float64
			for _, w := range ws {
				if w.Category != cat {
					continue
				}
				r := results[k]
				k++
				covs = append(covs, r.Coverage)
				miss = append(miss, r.MispredRate)
			}
			c, m := stats.Mean(covs), stats.Mean(miss)
			out = append(out, Fig16Row{Prefetcher: pf, Category: cat,
				Covered: c, Uncovered: 1 - c, Mispred: m})
			total[pf].cov += c
			total[pf].mis += m
			total[pf].n++
		}
	}
	for _, pf := range pfs {
		a := total[pf]
		if a.n > 0 {
			out = append(out, Fig16Row{Prefetcher: pf, Category: "AVG",
				Covered: a.cov / a.n, Uncovered: 1 - a.cov/a.n, Mispred: a.mis / a.n})
		}
	}
	return out
}

// Fig17 regenerates paper Fig. 17: homogeneous 4-core mixes (four copies of
// each memory-intensive workload) on the dual-channel MP machine.
func Fig17(s Scale) CategoryResult {
	pfs := []sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP, sim.PFDSPatchSPP}
	res := CategoryResult{Prefetchers: pfs, Categories: trace.Categories}
	perCat := make([]map[trace.Category][]float64, len(pfs))
	all := make([][]float64, len(pfs))
	for i := range pfs {
		perCat[i] = map[trace.Category][]float64{}
	}
	// The memory-intensive sample is already category-balanced; run one
	// homogeneous 4-copy mix per member.
	mixes := s.memIntensive()
	var jobs []Job
	for _, w := range mixes {
		four := []trace.Workload{w, w, w, w}
		opt := sim.DefaultMP()
		opt.Refs = s.Refs / 2
		opt.Seed = s.Seed
		base := opt
		base.L2 = sim.PFNone
		jobs = append(jobs, Job{Workloads: four, Opt: base})
		for _, pf := range pfs {
			with := opt
			with.L2 = pf
			jobs = append(jobs, Job{Workloads: four, Opt: with})
		}
	}
	results := s.runAll(jobs)

	k := 0
	for _, w := range mixes {
		b := results[k]
		k++
		for i := range pfs {
			ratio := stats.Geomean(sim.Speedup(b, results[k]))
			k++
			perCat[i][w.Category] = append(perCat[i][w.Category], ratio)
			all[i] = append(all[i], ratio)
		}
	}
	for i := range pfs {
		var row []float64
		for _, cat := range res.Categories {
			row = append(row, deltaOrNaN(perCat[i][cat]))
		}
		res.Delta = append(res.Delta, row)
		kept, dropped := stats.FiniteRatios(all[i])
		res.Dropped += dropped
		res.Geomean = append(res.Geomean, stats.GeomeanSpeedupPct(kept))
	}
	return res
}

// Fig18Row is one bar group of the MP bandwidth figure.
type Fig18Row struct {
	Mix   string // "Homogeneous" or "Heterogeneous"
	MTps  int    // 2133 or 2400
	Delta map[sim.PF]float64
}

// Fig18 regenerates paper Fig. 18: homogeneous and heterogeneous mixes at
// dual-channel DDR4-2133 and DDR4-2400.
func Fig18(s Scale) []Fig18Row {
	pfs := []sim.PF{sim.PFBOP, sim.PFSMS, sim.PFSPP, sim.PFDSPatchSPP}
	hot := trace.MemIntensive()
	nMix := s.MPMixes
	if nMix <= 0 {
		nMix = 42
	}

	homo := make([][]trace.Workload, 0, nMix)
	for i := 0; i < nMix && i < len(hot); i++ {
		w := hot[i]
		homo = append(homo, []trace.Workload{w, w, w, w})
	}
	hetero := make([][]trace.Workload, 0, nMix)
	for i := 0; i < nMix; i++ {
		mix := make([]trace.Workload, 4)
		for j := 0; j < 4; j++ {
			mix[j] = hot[(i*4+j*7+i*i)%len(hot)]
		}
		hetero = append(hetero, mix)
	}

	var out []Fig18Row
	for _, mt := range []int{2133, 2400} {
		for _, kind := range []struct {
			name  string
			mixes [][]trace.Workload
		}{{"Homogeneous", homo}, {"Heterogeneous", hetero}} {
			var jobs []Job
			for _, mix := range kind.mixes {
				opt := sim.DefaultMP()
				opt.DRAM = dram.DDR4(2, mt)
				opt.Refs = s.Refs / 2
				opt.Seed = s.Seed
				base := opt
				base.L2 = sim.PFNone
				jobs = append(jobs, Job{Workloads: mix, Opt: base})
				for _, pf := range pfs {
					with := opt
					with.L2 = pf
					jobs = append(jobs, Job{Workloads: mix, Opt: with})
				}
			}
			results := s.runAll(jobs)

			row := Fig18Row{Mix: kind.name, MTps: mt, Delta: map[sim.PF]float64{}}
			ratios := map[sim.PF][]float64{}
			k := 0
			for range kind.mixes {
				b := results[k]
				k++
				for _, pf := range pfs {
					ratios[pf] = append(ratios[pf], stats.Geomean(sim.Speedup(b, results[k])))
					k++
				}
			}
			for _, pf := range pfs {
				row.Delta[pf] = stats.GeomeanSpeedupPct(ratios[pf])
			}
			out = append(out, row)
		}
	}
	return out
}

// Fig19Result is the ablation of the accuracy-biased pattern.
type Fig19Result struct {
	DSPatch    float64 // full algorithm, DSPatch+SPP delta %
	AlwaysCovP float64
	ModCovP    float64
}

// Fig19 regenerates paper Fig. 19: the full DSPatch versus the AlwaysCovP
// and ModCovP variants that never use AccP, on a bandwidth-constrained
// machine where the selection logic matters.
func Fig19(s Scale) Fig19Result {
	ws := s.memIntensive()
	pfs := []sim.PF{sim.PFDSPatch, sim.PFDSPatchAlwaysCov, sim.PFDSPatchModCov}
	var jobs []Job
	for _, w := range ws {
		// Four copies on the MP machine: bandwidth contention is what
		// differentiates the variants.
		four := []trace.Workload{w, w, w, w}
		opt := sim.DefaultMP()
		opt.Refs = s.Refs / 2
		opt.Seed = s.Seed
		base := opt
		base.L2 = sim.PFNone
		jobs = append(jobs, Job{Workloads: four, Opt: base})
		for _, pf := range pfs {
			with := opt
			with.L2 = pf
			jobs = append(jobs, Job{Workloads: four, Opt: with})
		}
	}
	results := s.runAll(jobs)

	ratios := make([][]float64, len(pfs))
	k := 0
	for range ws {
		b := results[k]
		k++
		for i := range pfs {
			ratios[i] = append(ratios[i], stats.Geomean(sim.Speedup(b, results[k])))
			k++
		}
	}
	return Fig19Result{
		DSPatch:    stats.GeomeanSpeedupPct(ratios[0]),
		AlwaysCovP: stats.GeomeanSpeedupPct(ratios[1]),
		ModCovP:    stats.GeomeanSpeedupPct(ratios[2]),
	}
}

// Fig20Row is the pollution taxonomy at one LLC size.
type Fig20Row struct {
	LLCMB               int
	NoReuse             float64
	PrefetchedBeforeUse float64
	BadPollution        float64
}

// Fig20 regenerates the appendix figure: LLC victims of an aggressive
// streamer's inaccurate prefetches, classified as NoReuse /
// PrefetchedBeforeUse / BadPollution at 2, 4 and 8MB LLCs.
func Fig20(s Scale) []Fig20Row {
	ws := s.workloads()
	sizes := []int{8, 4, 2}
	var jobs []Job
	for _, mb := range sizes {
		for _, w := range ws {
			opt := s.stOptions()
			opt.LLCBytes = mb << 20
			opt.L2 = sim.PFStreamer
			opt.TrackPollution = true
			jobs = append(jobs, SingleJob(w, opt))
		}
	}
	results := s.runAll(jobs)

	var out []Fig20Row
	k := 0
	for _, mb := range sizes {
		var n, p, b []float64
		for range ws {
			r := results[k]
			k++
			if r.Pollution[0]+r.Pollution[1]+r.Pollution[2] == 0 {
				continue // no prefetch-caused LLC victims in this workload
			}
			n = append(n, r.Pollution[0])
			p = append(p, r.Pollution[1])
			b = append(b, r.Pollution[2])
		}
		out = append(out, Fig20Row{LLCMB: mb,
			NoReuse:             stats.Mean(n),
			PrefetchedBeforeUse: stats.Mean(p),
			BadPollution:        stats.Mean(b)})
	}
	return out
}

// Headline computes the paper's in-text summary numbers: DSPatch+SPP over
// SPP overall and on memory-intensive workloads, standalone DSPatch versus
// SPP, and the coverage:misprediction trade.
type HeadlineResult struct {
	DSPatchSPPOverSPPPct    float64 // paper: ≈6%
	DSPatchSPPOverSPPHotPct float64 // paper: ≈9%
	DSPatchVsSPPPct         float64 // paper: ≈1%
	CoverageGainPct         float64 // paper: ≈15% coverage over SPP
	MispredGainPct          float64 // paper: ≈6.5% more mispredictions
	Dropped                 int     // workloads excluded for degenerate ratios
}

// Headline regenerates the abstract's numbers.
func Headline(s Scale) HeadlineResult {
	var res HeadlineResult
	var allSPP, allBoth, hotSPP, hotBoth, allDSP []float64
	var covSPP, covBoth, misSPP, misBoth []float64
	ws := s.workloads()
	var jobs []Job
	for _, w := range ws {
		opt := s.stOptions()
		base := opt
		base.L2 = sim.PFNone
		jobs = append(jobs, SingleJob(w, base))
		for _, pf := range []sim.PF{sim.PFSPP, sim.PFDSPatchSPP, sim.PFDSPatch} {
			with := opt
			with.L2 = pf
			jobs = append(jobs, SingleJob(w, with))
		}
	}
	results := s.runAll(jobs)

	k := 0
	for _, w := range ws {
		b, rs, rb, rd := results[k], results[k+1], results[k+2], results[k+3]
		k += 4

		sppRatio := sim.Speedup(b, rs)[0]
		bothRatio := sim.Speedup(b, rb)[0]
		dspRatio := sim.Speedup(b, rd)[0]
		// The headline numbers are ratios of geomeans, so the numerator and
		// denominator sets must stay paired: a workload with any degenerate
		// ratio is dropped from all of them, not clamped.
		if kept, _ := stats.FiniteRatios([]float64{sppRatio, bothRatio, dspRatio}); len(kept) < 3 {
			res.Dropped++
			continue
		}
		allSPP = append(allSPP, sppRatio)
		allBoth = append(allBoth, bothRatio)
		allDSP = append(allDSP, dspRatio)
		if w.MemIntensive {
			hotSPP = append(hotSPP, sppRatio)
			hotBoth = append(hotBoth, bothRatio)
		}
		covSPP = append(covSPP, rs.Coverage)
		covBoth = append(covBoth, rb.Coverage)
		misSPP = append(misSPP, rs.MispredRate)
		misBoth = append(misBoth, rb.MispredRate)
	}
	res.DSPatchSPPOverSPPPct = stats.SpeedupPct(stats.Geomean(allBoth) / stats.Geomean(allSPP))
	res.DSPatchSPPOverSPPHotPct = stats.SpeedupPct(stats.Geomean(hotBoth) / stats.Geomean(hotSPP))
	res.DSPatchVsSPPPct = stats.SpeedupPct(stats.Geomean(allDSP) / stats.Geomean(allSPP))
	res.CoverageGainPct = 100 * (stats.Mean(covBoth) - stats.Mean(covSPP))
	res.MispredGainPct = 100 * (stats.Mean(misBoth) - stats.Mean(misSPP))
	return res
}
