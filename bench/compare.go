package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// runCompare prints, per bench workload and metric, both sides' median and
// quartiles and a verdict against the bounds in BENCHMARK.json.
func runCompare(w io.Writer, specPath, basePath, newPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cand, err := readRecords(newPath)
	if err != nil {
		return err
	}
	for _, wl := range spec.Workloads {
		for traced, metrics := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			b, c := selectRecords(base, wl.Name, traced), selectRecords(cand, wl.Name, traced)
			if len(b) == 0 && len(c) == 0 {
				continue
			}
			kind := map[int]string{0: "end-to-end", 1: "traced"}[traced]
			fmt.Fprintf(w, "== %s %s: base %d runs, new %d runs\n", wl.Name, kind, len(b), len(c))
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			// End-to-end rows also judge the unscaled values, so a regression
			// that host-speed rescaling hid would still show.
			fmt.Fprintln(tw, "metric\tunit\tbase median [q1, q3]\tnew median [q1, q3]\tchange\tbound\tverdict\tunscaled change\tunscaled verdict")
			for _, m := range metrics {
				bv := metricValues(b, func(r record) (float64, bool) { v, ok := r.Result.Metrics[m.Name]; return v.Value, ok })
				cv := metricValues(c, func(r record) (float64, bool) { v, ok := r.Result.Metrics[m.Name]; return v.Value, ok })
				v, bound, rawChange, rawVerdict := "-", "-", "-", "-"
				if traced == 0 {
					v, bound = verdict(bv, cv, m.Better, m.Bound), fmt.Sprintf("%.0f%%", 100*m.Bound)
					unscaled := func(r record) (float64, bool) {
						if v, ok := r.Raw[m.Name]; ok {
							return v, true
						}
						v, ok := r.Result.Metrics[m.Name]
						return v.Value, ok
					}
					rb, rc := metricValues(b, unscaled), metricValues(c, unscaled)
					rawChange, rawVerdict = change(rb, rc), verdict(rb, rc, m.Better, m.Bound)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", m.Name, m.Unit, summary(bv), summary(cv), change(bv, cv), bound, v, rawChange, rawVerdict)
			}
			for _, k := range extraNames(b, c) {
				get := func(r record) (float64, bool) { v, ok := r.Extra[k]; return v.Value, ok }
				bv, cv := metricValues(b, get), metricValues(c, get)
				unit := ""
				for _, rs := range [][]record{b, c} {
					for _, r := range rs {
						if m, ok := r.Extra[k]; ok {
							unit = m.Unit
						}
					}
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t-\tnot gated\t-\t-\n", k, unit, summary(bv), summary(cv), change(bv, cv))
			}
			tw.Flush()
			fmt.Fprintf(w, "failed: base %s, new %s\n", failedShare(b), failedShare(c))
			if traced == 0 {
				fmt.Fprintln(w, digestLine(b, c))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

func selectRecords(rs []record, workload string, traced int) []record {
	var out []record
	for _, r := range rs {
		if r.Workload == workload && r.Trace == traced {
			out = append(out, r)
		}
	}
	return out
}

func metricValues(rs []record, get func(record) (float64, bool)) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := get(r); ok {
			out = append(out, v)
		}
	}
	return out
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "n/a"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}

func change(b, c []float64) string {
	if len(b) == 0 || len(c) == 0 {
		return "n/a"
	}
	_, mb, _ := quartiles(b)
	_, mc, _ := quartiles(c)
	if mb == 0 {
		return fmt.Sprintf("%+.4g", mc-mb)
	}
	return fmt.Sprintf("%+.2f%%", 100*(mc-mb)/math.Abs(mb))
}

// verdict classifies the change from base to cand of a metric whose better
// direction is "higher" or "lower" and whose regression bound is a share of
// the base median. A side whose quartile spread exceeds the bound leaves the
// comparison unresolved unless every new run beats every base run; an
// improvement needs the new median better by more than the base spread and
// the new side winning nine tenths of the runs paired by position.
func verdict(base, cand []float64, better string, bound float64) string {
	if len(base) == 0 || len(cand) == 0 {
		return "n/a"
	}
	sign := 1.0
	if better == "lower" {
		sign = -1
	}
	bq1, bm, bq3 := quartiles(base)
	cq1, cm, cq3 := quartiles(cand)
	gain := sign * (cm - bm) / math.Abs(bm) // > 0: better
	allBetter := true
	for _, b := range base {
		for _, c := range cand {
			if sign*(c-b) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case (bq3-bq1)/math.Abs(bm) > bound || (cq3-cq1)/math.Abs(cm) > bound:
		if allBetter {
			return "improved"
		}
		return "unresolved"
	case -gain > bound:
		return "regressed"
	}
	wins, pairs := 0, min(len(base), len(cand))
	for i := 0; i < pairs; i++ {
		if sign*(cand[i]-base[i]) > 0 {
			wins++
		}
	}
	if gain > 0 && sign*(cm-bm) > bq3-bq1 && float64(wins) >= 0.9*float64(pairs) {
		return "improved"
	}
	return "unchanged"
}

// extraNames lists, sorted, the report-only values the records carry.
func extraNames(sets ...[]record) []string {
	seen := map[string]bool{}
	var out []string
	for _, rs := range sets {
		for _, r := range rs {
			for k := range r.Extra {
				if !seen[k] {
					seen[k] = true
					out = append(out, k)
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func failedShare(rs []record) string {
	var failed, attempted int
	for _, r := range rs {
		failed += r.Result.Failed
		attempted += r.Result.Attempted
	}
	return fmt.Sprintf("%d of %d operations", failed, attempted)
}

// digestLine reports whether the two sides produced identical results on the
// seeds both ran.
func digestLine(b, c []record) string {
	bySeed := map[int64]string{}
	for _, r := range b {
		bySeed[r.Seed] = r.Digest
	}
	shared, same := 0, 0
	for _, r := range c {
		if d, ok := bySeed[r.Seed]; ok {
			shared++
			if d == r.Digest {
				same++
			}
		}
	}
	return fmt.Sprintf("result_digest: identical on %d of %d seeds both sides ran", same, shared)
}
