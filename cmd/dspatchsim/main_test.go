package main

import (
	"bytes"

	"dspatch/internal/experiments"
	"dspatch/internal/trace"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListPrintsEveryExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := appMain([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit code = %d, stderr: %s", code, errb.String())
	}
	got := strings.Fields(out.String())
	if len(got) != len(experimentOrder) {
		t.Fatalf("-list printed %d ids, want %d:\n%s", len(got), len(experimentOrder), out.String())
	}
	for i, id := range experimentOrder {
		if got[i] != id {
			t.Errorf("-list line %d = %q, want %q", i, got[i], id)
		}
	}
}

// TestBadFlagsExitNonZero is the flag-validation audit: every invalid value
// or nonsensical combination must exit 2 with a message on stderr — never a
// panic, never a silent success that quietly ignores the flag.
func TestBadFlagsExitNonZero(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // stderr substring
	}{
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
		{"removed bench flag", []string{"-bench"}, "flag provided but not defined"},
		{"removed no-cache flag", []string{"-no-cache", "-experiment", "fig4"}, "flag provided but not defined: -no-cache"},
		{"scenario with nothing to run", []string{"-scenario", "specs.json"}, "-scenario requires something to run it with: -experiment, -campaign, -stats or -trace-export"},
		{"negative refs", []string{"-experiment", "fig4", "-refs", "-5"}, "-refs"},
		{"negative parallel", []string{"-experiment", "fig4", "-parallel", "-2"}, "-parallel"},
		{"malformed refs", []string{"-experiment", "fig4", "-refs", "many"}, "invalid value"},
		{"workload without export", []string{"-workload", "tpcc", "-experiment", "fig4"}, "-workload"},
		{"export without workload", []string{"-trace-export", "x.trace"}, "-workload"},
		{"campaign-out without campaign", []string{"-campaign-out", "x.ndjson", "-experiment", "fig4"}, "-campaign-out"},
		{"campaign-csv without campaign", []string{"-campaign-csv", "x.csv", "-experiment", "fig4"}, "-campaign-out"},
		{"campaign with experiment", []string{"-campaign", "spec.json", "-experiment", "fig4"}, "-campaign"},
		{"campaign with refs", []string{"-campaign", "spec.json", "-refs", "5000"}, "in the spec"},
		{"campaign with full", []string{"-campaign", "spec.json", "-full"}, "in the spec"},
		{"campaign with seed", []string{"-campaign", "spec.json", "-seed", "2"}, "in the spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := appMain(tc.args, &out, &errb)
			if code != 2 {
				t.Fatalf("exit = %d, want 2 (stderr: %s)", code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.want) {
				t.Errorf("stderr %q missing %q", errb.String(), tc.want)
			}
		})
	}
}

func TestNoArgsIsUsageError(t *testing.T) {
	var out, errb bytes.Buffer
	if code := appMain(nil, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Errorf("stderr missing usage: %s", errb.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := appMain([]string{"-experiment", "fig99"}, &out, &errb); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "fig99") {
		t.Errorf("stderr should name the unknown id: %s", errb.String())
	}
}

func TestExperimentRunAtTinyRefs(t *testing.T) {
	var out, errb bytes.Buffer
	code := appMain([]string{"-experiment", "fig4", "-refs", "2000", "-parallel", "4"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"Fig 4", "GEOMEAN", "bop", "sms", "spp"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestExperimentSeedApplies: -seed reaches the experiment scale, so a
// second seed simulates different streams and prints different numbers.
func TestExperimentSeedApplies(t *testing.T) {
	run := func(seed string) string {
		var out, errb bytes.Buffer
		if code := appMain([]string{"-experiment", "headline", "-refs", "2000", "-seed", seed}, &out, &errb); code != 0 {
			t.Fatalf("-seed %s: exit code = %d, stderr: %s", seed, code, errb.String())
		}
		return out.String()
	}
	if one, two := run("1"), run("2"); one == two {
		t.Fatalf("-seed 2 printed the same output as -seed 1:\n%s", one)
	}
}

func TestParallelMatchesSerialOutput(t *testing.T) {
	var serial, parallel, errb bytes.Buffer
	args := []string{"-experiment", "fig4", "-refs", "2000"}
	if code := appMain(append(args, "-parallel", "1"), &serial, &errb); code != 0 {
		t.Fatalf("serial run failed: %s", errb.String())
	}
	if code := appMain(append(args, "-parallel", "4"), &parallel, &errb); code != 0 {
		t.Fatalf("parallel run failed: %s", errb.String())
	}
	if serial.String() != parallel.String() {
		t.Errorf("-parallel 4 output differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
			serial.String(), parallel.String())
	}
}

func TestTablesNeedNoSimulation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := appMain([]string{"-experiment", "table1"}, &out, &errb); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Total") {
		t.Errorf("table1 output missing Total row:\n%s", out.String())
	}
}

func TestProfileFlagsWriteFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	var out, errb bytes.Buffer
	code := appMain([]string{"-experiment", "fig4", "-refs", "1000",
		"-cpuprofile", cpu, "-memprofile", mem}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errb.String())
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestTraceExportImportRoundTrip(t *testing.T) {
	defer trace.ResetShared() // imports replace process-wide streams
	dir := t.TempDir()
	path := filepath.Join(dir, "linpack.trace")
	var out, errb bytes.Buffer
	if code := appMain([]string{"-trace-export", path, "-workload", "linpack", "-refs", "1000", "-seed", "3"}, &out, &errb); code != 0 {
		t.Fatalf("trace-export exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "exported 1000 refs") {
		t.Fatalf("unexpected export output: %s", out.String())
	}
	out.Reset()
	if code := appMain([]string{"-trace-import", path}, &out, &errb); code != 0 {
		t.Fatalf("trace-import exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), `workload "linpack" seed 3 refs 1000`) {
		t.Fatalf("unexpected import output: %s", out.String())
	}
}

func TestTraceExportRequiresWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := appMain([]string{"-trace-export", filepath.Join(t.TempDir(), "x.trace")}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestTraceImportRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := appMain([]string{"-trace-import", path}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errb.String())
	}
}

func TestCacheDirSecondRunIdentical(t *testing.T) {
	cache := filepath.Join(t.TempDir(), "cache")
	args := []string{"-experiment", "fig4", "-refs", "600", "-parallel", "1", "-cache-dir", cache}
	var out1, out2, errb bytes.Buffer
	if code := appMain(args, &out1, &errb); code != 0 {
		t.Fatalf("first run exit %d, stderr: %s", code, errb.String())
	}
	entries, err := filepath.Glob(filepath.Join(cache, experiments.EntryGlob))
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache dir empty after run (err %v)", err)
	}
	// Drop the in-process memo so the second invocation genuinely reads the
	// disk entries, as a second process would.
	experiments.ResetMemo()
	if code := appMain(args, &out2, &errb); code != 0 {
		t.Fatalf("second run exit %d, stderr: %s", code, errb.String())
	}
	if out1.String() != out2.String() {
		t.Fatal("cache-served second run printed different output")
	}
}

func TestTraceImportTooShortForScale(t *testing.T) {
	defer trace.ResetShared() // imports replace process-wide streams
	dir := t.TempDir()
	path := filepath.Join(dir, "short.trace")
	var out, errb bytes.Buffer
	if code := appMain([]string{"-trace-export", path, "-workload", "linpack", "-refs", "500"}, &out, &errb); code != 0 {
		t.Fatalf("export exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := appMain([]string{"-trace-import", path, "-experiment", "fig4", "-refs", "2000"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2 (refs exceed imported length); stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "holds 500 refs") {
		t.Errorf("error should explain the length limit: %s", errb.String())
	}
}

func TestTraceImportDisablesRunCache(t *testing.T) {
	defer trace.ResetShared() // imports replace process-wide streams
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	cache := filepath.Join(dir, "cache")
	var out, errb bytes.Buffer
	if code := appMain([]string{"-trace-export", path, "-workload", "linpack", "-refs", "1500"}, &out, &errb); code != 0 {
		t.Fatalf("export exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := appMain([]string{"-trace-import", path, "-experiment", "fig4", "-refs", "800", "-cache-dir", cache, "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "cache disabled") {
		t.Errorf("stderr should note the disabled cache: %s", errb.String())
	}
	if entries, _ := filepath.Glob(filepath.Join(cache, experiments.EntryGlob)); len(entries) != 0 {
		t.Errorf("cache entries written despite -trace-import: %v", entries)
	}
}

func TestTraceImportUnreachableStreamDoesNotBlock(t *testing.T) {
	defer trace.ResetShared()
	dir := t.TempDir()
	path := filepath.Join(dir, "ext.trace")
	var out, errb bytes.Buffer
	// Record at a seed no experiment lane reaches, then rename to an
	// unknown workload: the experiment must run even though the imported
	// trace is far shorter than the scale.
	if code := appMain([]string{"-trace-export", path, "-workload", "linpack", "-refs", "300", "-seed", "77"}, &out, &errb); code != 0 {
		t.Fatalf("export exit %d: %s", code, errb.String())
	}
	errb.Reset()
	if code := appMain([]string{"-trace-import", path, "-experiment", "fig4", "-refs", "1500", "-parallel", "1"}, &out, &errb); code != 0 {
		t.Fatalf("foreign-seed import blocked the experiment: exit %d, stderr: %s", code, errb.String())
	}
}

// TestCampaignCLI drives a tiny grid campaign end to end: valid NDJSON on
// stdout (header, one record per point in index order, summary) plus the
// mirrored CSV table, and a malformed or unknown-field spec exits non-zero.
func TestCampaignCLI(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(spec, []byte(`{
		"name": "cli",
		"base": {"refs": 700},
		"axes": {"workloads": ["mcf", "tpcc"], "l2": ["none", "spp"]}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outP := filepath.Join(dir, "out.ndjson")
	csvP := filepath.Join(dir, "out.csv")
	var out, errb bytes.Buffer
	if code := appMain([]string{"-campaign", spec, "-campaign-out", outP, "-campaign-csv", csvP}, &out, &errb); code != 0 {
		t.Fatalf("campaign exit %d: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "campaign cli: 4 points") {
		t.Errorf("stderr missing completion note: %s", errb.String())
	}

	data, err := os.ReadFile(outP)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 6 { // header + 4 points + summary
		t.Fatalf("NDJSON lines = %d, want 6:\n%s", len(lines), data)
	}
	var types []string
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, line)
		}
		types = append(types, rec["type"].(string))
	}
	if got := strings.Join(types, ","); got != "campaign,point,point,point,point,summary" {
		t.Errorf("record types = %s", got)
	}

	csvData, err := os.ReadFile(csvP)
	if err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(string(csvData)), "\n")
	if len(csvLines) != 5 { // header + 4 points
		t.Fatalf("CSV lines = %d, want 5:\n%s", len(csvLines), csvData)
	}
	if !strings.HasPrefix(csvLines[0], "index,workloads,l2,") {
		t.Errorf("CSV header = %s", csvLines[0])
	}

	// Stdout NDJSON (no -campaign-out) must carry the same stream — byte
	// for byte on every point record; only the summary's telemetry fields
	// (engine cache deltas, elapsed time) may differ between a cold run and
	// the memoized rerun.
	out.Reset()
	if code := appMain([]string{"-campaign", spec}, &out, &errb); code != 0 {
		t.Fatalf("campaign to stdout exit %d: %s", code, errb.String())
	}
	stdoutLines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(stdoutLines) != len(lines) {
		t.Fatalf("stdout stream has %d lines, -campaign-out had %d", len(stdoutLines), len(lines))
	}
	stripTelemetry := func(line string) string {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("summary line: %v", err)
		}
		delete(m, "engine")
		delete(m, "elapsed_ms")
		b, _ := json.Marshal(m)
		return string(b)
	}
	for i := range lines {
		a, b := lines[i], stdoutLines[i]
		if i == len(lines)-1 {
			a, b = stripTelemetry(a), stripTelemetry(b)
		}
		if a != b {
			t.Errorf("stdout record %d differs from -campaign-out:\n%s\n%s", i, b, a)
		}
	}

	// Spec errors exit non-zero with a message.
	bad := filepath.Join(dir, "bad.json")
	for name, body := range map[string]string{
		"malformed":     "{not json",
		"unknown field": `{"axis": {"workloads": ["mcf"]}}`,
		"bad value":     `{"axes": {"workloads": ["mcf"], "dram_mtps": [999]}}`,
	} {
		if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		errb.Reset()
		if code := appMain([]string{"-campaign", bad}, &out, &errb); code != 1 {
			t.Errorf("%s spec: exit %d, want 1 (stderr: %s)", name, code, errb.String())
		}
	}
	if code := appMain([]string{"-campaign", filepath.Join(dir, "missing.json")}, &out, &errb); code != 1 {
		t.Error("missing spec file accepted")
	}
}
