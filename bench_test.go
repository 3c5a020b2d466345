// Package dspatch's benchmark harness regenerates every table and figure of
// the paper's evaluation (run `go test -bench=. -benchmem`); each benchmark
// prints the rows the paper reports, at the Quick scale so the suite stays
// laptop-sized. Use `cmd/dspatchsim -experiment <id> -full` for the complete
// 75-workload roster. The README's experiment index maps ids to paper
// artifacts.
package dspatch

import (
	"os"
	"sync"
	"testing"

	"dspatch/internal/experiments"
)

// benchScale is smaller than Quick so the full -bench=. sweep finishes in
// minutes on one core.
func benchScale() Scale {
	return Scale{Refs: 15_000, PerCategory: 1, MPMixes: 2, Seed: 1}
}

// once-guards let benchmarks print each figure a single time regardless of
// the -benchtime iteration count.
var printOnce sync.Map

func oncePerBench(name string, f func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		f()
	}
}

func BenchmarkTable1Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table1()
		oncePerBench("table1", func() {
			experiments.FormatStorage(os.Stdout, "Table 1: DSPatch storage", rows)
		})
	}
}

func BenchmarkTable3Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := Table3()
		oncePerBench("table3", func() {
			experiments.FormatStorage(os.Stdout, "Table 3: prefetcher storage budgets", rows)
		})
	}
}

func BenchmarkFig1BandwidthScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig1(benchScale())
		oncePerBench("fig1", func() {
			experiments.FormatScaling(os.Stdout, "Fig 1: BOP/SMS/SPP scaling with DRAM bandwidth", r)
		})
	}
}

func BenchmarkFig4CategoryPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig4(benchScale())
		oncePerBench("fig4", func() {
			experiments.FormatCategory(os.Stdout, "Fig 4: BOP/SMS/SPP by category", r)
		})
	}
}

func BenchmarkFig5SMSStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig5(benchScale())
		oncePerBench("fig5", func() { experiments.FormatFig5(os.Stdout, r) })
	}
}

func BenchmarkFig6EnhancedScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig6(benchScale())
		oncePerBench("fig6", func() {
			experiments.FormatScaling(os.Stdout, "Fig 6: scaling incl. eSPP/eBOP", r)
		})
	}
}

func BenchmarkFig11DeltaDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := Fig11a(benchScale())
		oncePerBench("fig11a", func() { experiments.FormatFig11(os.Stdout, a, [6]float64{}) })
	}
}

func BenchmarkFig11Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := Fig11b(benchScale())
		oncePerBench("fig11b", func() { experiments.FormatFig11(os.Stdout, experiments.Fig11aResult{}, h) })
	}
}

func BenchmarkFig12SingleThread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig12(benchScale())
		oncePerBench("fig12", func() {
			experiments.FormatCategory(os.Stdout, "Fig 12: single-thread performance", r)
		})
	}
}

func BenchmarkFig13MemIntensive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig13(benchScale())
		oncePerBench("fig13", func() { experiments.FormatFig13(os.Stdout, r) })
	}
}

func BenchmarkFig14Adjunct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig14(benchScale())
		oncePerBench("fig14", func() {
			experiments.FormatCategory(os.Stdout, "Fig 14: adjunct prefetchers to SPP", r)
		})
	}
}

func BenchmarkFig15Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig15(benchScale())
		oncePerBench("fig15", func() {
			experiments.FormatScaling(os.Stdout, "Fig 15: DSPatch+SPP bandwidth scaling", r)
		})
	}
}

func BenchmarkFig16Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig16(benchScale())
		oncePerBench("fig16", func() { experiments.FormatFig16(os.Stdout, r) })
	}
}

func BenchmarkFig17Homogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig17(benchScale())
		oncePerBench("fig17", func() {
			experiments.FormatCategory(os.Stdout, "Fig 17: homogeneous 4-core mixes", r)
		})
	}
}

func BenchmarkFig18MPBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig18(benchScale())
		oncePerBench("fig18", func() { experiments.FormatFig18(os.Stdout, r) })
	}
}

func BenchmarkFig19Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := Fig19(benchScale())
		oncePerBench("fig19", func() { experiments.FormatFig19(os.Stdout, r) })
	}
}

func BenchmarkFig20Pollution(b *testing.B) {
	s := benchScale()
	s.Refs = 60_000 // enough footprint to pressure the 8MB LLC row
	for i := 0; i < b.N; i++ {
		r := Fig20(s)
		oncePerBench("fig20", func() { experiments.FormatFig20(os.Stdout, r) })
	}
}

// BenchmarkHeadline measures the paper's summary experiment as a library
// caller sees it: the process-wide run memo stays warm, so repeated calls
// after the first cost only aggregation.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := Headline(benchScale())
		oncePerBench("headline", func() { experiments.FormatHeadline(os.Stdout, h) })
	}
}

// BenchmarkHeadlineCold is the end-to-end simulation-throughput benchmark:
// the memo is dropped each iteration so every simulation actually runs.
func BenchmarkHeadlineCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.ResetMemo()
		h := Headline(benchScale())
		oncePerBench("headline", func() { experiments.FormatHeadline(os.Stdout, h) })
	}
}

// ---- Experiment-engine benches: serial vs parallel Fig. 4 at Quick scale.
// The memo is reset each iteration so both measure cold-cache work; the
// parallel variant should win roughly linearly with core count. ----

func BenchmarkFig4QuickSerial(b *testing.B) {
	s := QuickScale().WithParallel(1)
	for i := 0; i < b.N; i++ {
		experiments.ResetMemo()
		Fig4(s)
	}
}

func BenchmarkFig4QuickParallel(b *testing.B) {
	s := QuickScale() // Parallel 0 = GOMAXPROCS workers
	for i := 0; i < b.N; i++ {
		experiments.ResetMemo()
		Fig4(s)
	}
}

// ---- Ablation benches for the design choices the README's experiment
// index calls out. ----

// ablationDelta measures one DSPatch variant's geomean delta over baseline
// on the memory-intensive sample.
func ablationDelta(kind PrefetcherKind, s Scale) float64 {
	r := experiments.AblationDelta(kind, s)
	return r
}

func BenchmarkAblationCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := ablationDelta(DSPatchPF, benchScale())
		un := ablationDelta("dspatch-nocompress", benchScale())
		oncePerBench("abl-comp", func() {
			b.Logf("128B compression on %+.1f%% vs off %+.1f%% (storage 3.4KB vs 4.4KB)", full, un)
		})
	}
}

func BenchmarkAblationDualTrigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dual := ablationDelta(DSPatchPF, benchScale())
		single := ablationDelta("dspatch-singletrigger", benchScale())
		oncePerBench("abl-trig", func() {
			b.Logf("dual trigger %+.1f%% vs single %+.1f%%", dual, single)
		})
	}
}
