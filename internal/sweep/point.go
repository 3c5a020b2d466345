package sweep

import (
	"fmt"
	"math/bits"

	"dspatch/internal/dram"
	"dspatch/internal/experiments"
	"dspatch/internal/sim"
	"dspatch/internal/trace"
)

// Guardrails on untrusted point specs. Generous next to the paper's full
// scale (200k refs) while keeping a single point from pinning a worker for
// hours. The service layer shares them: POST /v1/runs bodies are Points.
const (
	MaxRunLanes  = 8
	MaxRefs      = 5_000_000
	MinLLCBytes  = 1 << 16
	MaxLLCBytes  = 1 << 30
	MaxDRAMChans = 4
)

// Point is one fully-specified simulation: a workload mix run on one machine
// configuration under one prefetcher. It is the vocabulary shared by the
// whole serving stack — the body of the daemon's POST /v1/runs
// (service.RunSpec is an alias of it) and the unit a Campaign's axes expand
// into. Zero fields take the machine defaults of the paper's single-thread
// configuration (or the multi-programmed one for multi-lane mixes), exactly
// as sim.DefaultST/DefaultMP do, so a minimal {"workloads":["mcf"]} point is
// already meaningful.
type Point struct {
	Workloads []string `json:"workloads"`
	Refs      int      `json:"refs,omitempty"`
	Seed      int64    `json:"seed,omitempty"`
	// L2 selects the prefetcher under test ("none" baseline by default);
	// see GET /v1/prefetchers for the roster.
	L2             string `json:"l2,omitempty"`
	LLCBytes       int    `json:"llc_bytes,omitempty"`
	DRAMChannels   int    `json:"dram_channels,omitempty"`
	DRAMMTps       int    `json:"dram_mtps,omitempty"`
	NoL1Stride     bool   `json:"no_l1_stride,omitempty"`
	SMSPHTEntries  int    `json:"sms_pht_entries,omitempty"`
	TrackPollution bool   `json:"track_pollution,omitempty"`
	// CollectStats opts the run into per-prefetcher internal telemetry
	// (sim.Result.Prefetchers): campaign point records gain a "prefetchers"
	// field and /v1 job results expose it behind ?stats=1.
	CollectStats bool `json:"collect_stats,omitempty"`
	// Scenarios optionally carries scenario specs the point's workload names
	// refer to. Normalize registers them (strictly and idempotently: identical
	// re-registration is a no-op, redefining a name is an error) before name
	// validation, which is how ad-hoc scenarios and inline trace payloads
	// reach fleet workers — the coordinator attaches the defining specs to
	// every dispatched point. Campaign specs use the campaign-level
	// "scenarios" block instead, so stored point records stay spec-free.
	Scenarios []trace.ScenarioSpec `json:"scenarios,omitempty"`
}

// Normalize validates p against the roster and guardrails and fills every
// defaulted field in place, so the stored point states the machine it ran on
// and equal effective configurations share one canonical form.
func (p *Point) Normalize() error {
	if len(p.Workloads) == 0 {
		return fmt.Errorf("workloads: at least one workload name is required")
	}
	if len(p.Workloads) > MaxRunLanes {
		return fmt.Errorf("workloads: at most %d lanes per run, got %d", MaxRunLanes, len(p.Workloads))
	}
	for i := range p.Scenarios {
		if _, err := trace.RegisterSpec(p.Scenarios[i]); err != nil {
			return fmt.Errorf("scenarios[%d]: %w", i, err)
		}
	}
	for _, name := range p.Workloads {
		if _, ok := trace.ByName(name); !ok {
			return fmt.Errorf("workloads: unknown workload %q (see GET /v1/workloads)", name)
		}
	}
	if p.L2 == "" {
		p.L2 = string(sim.PFNone)
	}
	if !sim.KnownPF(sim.PF(p.L2)) {
		return fmt.Errorf("l2: unknown prefetcher %q (see GET /v1/prefetchers)", p.L2)
	}
	switch {
	case p.Refs < 0:
		return fmt.Errorf("refs: must be non-negative, got %d", p.Refs)
	case p.Refs == 0:
		p.Refs = 40_000
	case p.Refs > MaxRefs:
		return fmt.Errorf("refs: at most %d per run, got %d", MaxRefs, p.Refs)
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	multi := len(p.Workloads) > 1
	switch {
	case p.LLCBytes < 0:
		return fmt.Errorf("llc_bytes: must be non-negative, got %d", p.LLCBytes)
	case p.LLCBytes == 0:
		if multi {
			p.LLCBytes = 8 << 20
		} else {
			p.LLCBytes = 2 << 20
		}
	case p.LLCBytes < MinLLCBytes || p.LLCBytes > MaxLLCBytes || bits.OnesCount(uint(p.LLCBytes)) != 1:
		// The 16-way LLC derives its set count as llc_bytes/1024, which the
		// cache model requires to be a power of two.
		return fmt.Errorf("llc_bytes: want a power of two in [%d, %d], got %d", MinLLCBytes, MaxLLCBytes, p.LLCBytes)
	}
	if p.DRAMChannels == 0 {
		if multi {
			p.DRAMChannels = 2
		} else {
			p.DRAMChannels = 1
		}
	}
	if p.DRAMChannels < 1 || p.DRAMChannels > MaxDRAMChans {
		return fmt.Errorf("dram_channels: want 1..%d, got %d", MaxDRAMChans, p.DRAMChannels)
	}
	if p.DRAMMTps == 0 {
		p.DRAMMTps = 2133
	}
	switch p.DRAMMTps {
	case 1600, 2133, 2400:
	default:
		return fmt.Errorf("dram_mtps: want 1600, 2133 or 2400, got %d", p.DRAMMTps)
	}
	// The SMS pattern table is 16-way set-associative and its model requires
	// a power-of-two set count, so entries must be 16 * 2^k.
	if p.SMSPHTEntries != 0 &&
		(p.SMSPHTEntries < 16 || p.SMSPHTEntries > 1<<20 || bits.OnesCount(uint(p.SMSPHTEntries)) != 1) {
		return fmt.Errorf("sms_pht_entries: want 0 (default) or a power of two in [16, %d], got %d", 1<<20, p.SMSPHTEntries)
	}
	return nil
}

// Job converts a normalized point into the experiment engine's job form.
func (p *Point) Job() experiments.Job {
	return p.job(make([]trace.Workload, len(p.Workloads)))
}

// job is Job with the point's lanes resolved into ws, which must be
// len(p.Workloads) long.
func (p *Point) job(ws []trace.Workload) experiments.Job {
	for i, name := range p.Workloads {
		ws[i], _ = trace.ByName(name)
	}
	return experiments.Job{
		Workloads: ws,
		Opt: sim.Options{
			DRAM:           dram.DDR4(p.DRAMChannels, p.DRAMMTps),
			LLCBytes:       p.LLCBytes,
			Refs:           p.Refs,
			Seed:           p.Seed,
			L2:             sim.PF(p.L2),
			NoL1Stride:     p.NoL1Stride,
			SMSPHTEntries:  p.SMSPHTEntries,
			TrackPollution: p.TrackPollution,
			CollectStats:   p.CollectStats,
		},
	}
}
