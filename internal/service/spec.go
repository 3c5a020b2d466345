package service

import (
	"fmt"

	"dspatch/internal/experiments"
	"dspatch/internal/sweep"
)

// Guardrails on untrusted request bodies. The per-run limits live with the
// shared point vocabulary in internal/sweep (campaign axes expand into the
// same Points this API accepts); the scale limits below are service-only.
const (
	maxRefs        = sweep.MaxRefs
	maxPerCategory = 16
	maxMPMixes     = 64
)

// RunSpec is the body of POST /v1/runs: one simulation of a workload mix.
// It is the campaign subsystem's point vocabulary (sweep.Point) verbatim, so
// a /v1/runs body, a campaign axis expansion and a library Simulate call all
// describe machines in exactly the same terms. Zero fields take the machine
// defaults of the paper's single-thread configuration (or the
// multi-programmed one for multi-lane mixes), so a minimal
// {"workloads":["mcf"]} request is already meaningful.
type RunSpec = sweep.Point

// ScaleSpec is the body of POST /v1/experiments/{id}: the scale knobs of the
// experiment engine. The zero value is the laptop-sized quick scale;
// {"full": true} starts from the paper's full roster instead. Explicit
// fields override either base.
type ScaleSpec struct {
	Full        bool  `json:"full,omitempty"`
	Refs        int   `json:"refs,omitempty"`
	PerCategory int   `json:"per_category,omitempty"`
	MPMixes     int   `json:"mp_mixes,omitempty"`
	Seed        int64 `json:"seed,omitempty"`
}

// normalize validates the guardrails; defaults stay zero so the stored spec
// reflects what the client asked for (the scale() expansion is documented).
func (sp *ScaleSpec) normalize() error {
	switch {
	case sp.Refs < 0:
		return fmt.Errorf("refs: must be non-negative, got %d", sp.Refs)
	case sp.Refs > maxRefs:
		return fmt.Errorf("refs: at most %d per run, got %d", maxRefs, sp.Refs)
	}
	if sp.PerCategory < 0 || sp.PerCategory > maxPerCategory {
		return fmt.Errorf("per_category: want 0..%d, got %d", maxPerCategory, sp.PerCategory)
	}
	if sp.MPMixes < 0 || sp.MPMixes > maxMPMixes {
		return fmt.Errorf("mp_mixes: want 0..%d, got %d", maxMPMixes, sp.MPMixes)
	}
	return nil
}

// scale expands the spec against its base scale.
func (sp *ScaleSpec) scale() experiments.Scale {
	s := experiments.Quick()
	if sp.Full {
		s = experiments.Full()
	}
	if sp.Refs > 0 {
		s.Refs = sp.Refs
	}
	if sp.PerCategory > 0 {
		s.PerCategory = sp.PerCategory
	}
	if sp.MPMixes > 0 {
		s.MPMixes = sp.MPMixes
	}
	if sp.Seed != 0 {
		s.Seed = sp.Seed
	}
	return s
}
