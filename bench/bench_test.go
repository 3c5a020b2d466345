package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeSize runs every bench workload at roughly a hundredth of its size.
var smokeSize = size{
	stRefs: 1_000, mpMixes: 2, mpRefs: 500, svcRefs: 500,
	svcMinPoints: 48, warmCampaigns: 4, setupReps: 2,
}

// TestMain lets the test binary serve as the host-speed probe process, as
// the benchmark's own binary does.
func TestMain(m *testing.M) {
	if serveProbe() {
		return
	}
	os.Exit(m.Run())
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram pins BENCHMARK.json to the program: the same
// workloads, and the same metric names and units in the same order.
func TestSpecMatchesProgram(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
		}
		for i, d := range c.defs {
			if m := c.spec[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.kind, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every bench workload, end to end and traced, at smoke size
// and checks each prints every metric BENCHMARK.json names, finite and
// well-named, with no failed operation — which includes every traced job
// matching sim.Run bit for bit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every bench workload")
	}
	spec := loadSpec(t)
	t.Setenv("TMPDIR", t.TempDir())
	cfg := config{
		seed:    1,
		seconds: 50 * time.Millisecond,
		size:    smokeSize,
		spanDir: t.TempDir(),
		log:     testLog{t},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			mode, fn, defs, listed := "end-to-end", w.run, endToEnd, spec.EndToEnd
			if traced {
				mode, fn, defs, listed = "traced", w.trace, perLayer, spec.PerLayer
			}
			t.Run(w.name+"/"+mode, func(t *testing.T) {
				cfg.log = testLog{t}
				o, err := fn(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !traced {
					if o.metrics["peak_rss_mb"], err = peakRSSMB(); err != nil {
						t.Fatal(err)
					}
				}
				rec, err := newRecord(w.name, cfg.seed, traced, o, defs)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Result.Failed != 0 || rec.FailedFrac != 0 {
					t.Errorf("%d of %d operations failed: %s", rec.Result.Failed, rec.Result.Attempted, strings.Join(rec.Notes, "; "))
				}
				for _, m := range listed {
					v, ok := rec.Result.Metrics[m.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || !metricName.MatchString(m.Name) {
						t.Errorf("metric %s: printed %v, value %v", m.Name, ok, v.Value)
					}
				}
				if _, err := json.Marshal(rec.Result); err != nil {
					t.Error(err)
				}
				if traced {
					if _, err := os.Stat(cfg.spanDir + "/spans-" + w.name + ".tsv.gz"); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

type testLog struct{ t *testing.T }

func (l testLog) Write(p []byte) (int, error) {
	l.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		cand   []float64
		better string
		want   string
	}{
		{[]float64{100, 101, 99, 100, 101}, "higher", "unchanged"},
		{[]float64{80, 81, 79, 80, 82}, "higher", "regressed"},
		{[]float64{80, 81, 79, 80, 82}, "lower", "improved"},
		{[]float64{60, 140, 100, 70, 130}, "higher", "unresolved"},
	} {
		if got := verdict(base, c.cand, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.cand, c.better, got, c.want)
		}
	}
}
