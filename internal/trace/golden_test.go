package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_workloads.json from the current generators")

// The golden corpus pins every builtin workload's DSPTRC01 export bytes at
// two seeds. It is the refactoring safety net: any change to the generator
// implementations, the shorthand parameter derivations, the seed plumbing or
// the export encoding shows up as a hash mismatch. Regenerate only for an
// intentional stream change (go test ./internal/trace -run Golden
// -update-golden) and say why in the commit.
const (
	goldenRefs = 2000
	goldenPath = "testdata/golden_workloads.json"
)

var goldenSeeds = []int64{1, 42}

func goldenExportHash(t *testing.T, w Workload, seed int64) string {
	t.Helper()
	// A private Materialized keeps the golden sweep out of the process-wide
	// stream store (and its memory).
	m := &Materialized{name: w.Name, seed: seed, build: w.Build}
	m.ensure(goldenRefs)
	var buf bytes.Buffer
	if err := m.Export(&buf, goldenRefs); err != nil {
		t.Fatalf("export %s@%d: %v", w.Name, seed, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestGoldenWorkloadStreams(t *testing.T) {
	got := map[string]string{}
	for _, w := range Workloads() {
		if w.Source != SourceBuiltin {
			continue // registrations leaked by other tests are not corpus
		}
		for _, seed := range goldenSeeds {
			got[fmt.Sprintf("%s@%d", w.Name, seed)] = goldenExportHash(t, w, seed)
		}
	}

	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden hashes to %s", len(got), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden corpus (regenerate with -update-golden): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("parse %s: %v", goldenPath, err)
	}
	for key, h := range want {
		if got[key] == "" {
			t.Errorf("%s: workload missing from roster", key)
		} else if got[key] != h {
			t.Errorf("%s: stream bytes changed (golden %s…, got %s…)", key, h[:12], got[key][:12])
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden corpus (regenerate with -update-golden)", key)
		}
	}
}
