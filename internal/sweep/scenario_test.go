package sweep

import (
	"strings"
	"testing"

	"dspatch/internal/trace"
)

func listSpec(name string, nodes int) trace.ScenarioSpec {
	return trace.ScenarioSpec{
		Name: name, Kind: trace.KindPointer,
		Pointer: &trace.PointerChaseConfig{Style: "list", Nodes: nodes, NodesPerPage: 8, Depth: 64, MeanGap: 10},
	}
}

func TestCampaignInlineScenarios(t *testing.T) {
	t.Cleanup(trace.ResetShared)
	c := Campaign{
		Base: Point{Refs: 1000},
		Axes: Axes{
			Workloads: []Mix{{"camp-inline-chase"}, {"mcf"}},
			L2:        []string{"none", "dspatch"},
		},
		Scenarios: []trace.ScenarioSpec{listSpec("camp-inline-chase", 2048)},
	}
	idxs, pts, err := c.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(idxs) != 4 {
		t.Fatalf("expanded %d points, want 4", len(idxs))
	}
	for _, p := range pts {
		if len(p.Scenarios) != 0 {
			t.Errorf("expanded point carries scenarios: %+v", p.Scenarios)
		}
	}
	// Idempotent: re-validating (the service does this on submission, then
	// again when the job runs) must not conflict with itself.
	if _, err := c.Plan(); err != nil {
		t.Fatalf("re-Validate: %v", err)
	}
	// A second campaign redefining the name differently must be rejected.
	c2 := c
	c2.Scenarios = []trace.ScenarioSpec{listSpec("camp-inline-chase", 4096)}
	if _, err := c2.Plan(); err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("redefinition error = %v", err)
	}
}

func TestCampaignRejectsBaseScenarios(t *testing.T) {
	t.Cleanup(trace.ResetShared)
	c := Campaign{
		Base: Point{
			Workloads: []string{"mcf"},
			Scenarios: []trace.ScenarioSpec{listSpec("base-chase", 1024)},
		},
	}
	_, err := c.Plan()
	if err == nil || !strings.Contains(err.Error(), "base.scenarios") {
		t.Fatalf("error = %v, want base.scenarios rejection", err)
	}
}

func TestPointScenariosRegisterOnNormalize(t *testing.T) {
	t.Cleanup(trace.ResetShared)
	p := Point{
		Workloads: []string{"point-chase"},
		Scenarios: []trace.ScenarioSpec{listSpec("point-chase", 1024)},
	}
	if err := p.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if _, ok := trace.ByName("point-chase"); !ok {
		t.Fatal("scenario not registered")
	}
	// Re-normalizing (a worker receiving the same dispatched point twice) is
	// idempotent.
	if err := p.Normalize(); err != nil {
		t.Fatalf("re-Normalize: %v", err)
	}
	bad := Point{
		Workloads: []string{"mcf"},
		Scenarios: []trace.ScenarioSpec{{Name: "broken", Kind: "nope"}},
	}
	if err := bad.Normalize(); err == nil || !strings.Contains(err.Error(), "scenarios[0]") {
		t.Fatalf("invalid spec error = %v", err)
	}
}
