package sim

import (
	"dspatch/internal/ampm"
	"dspatch/internal/bop"
	"dspatch/internal/core"
	"dspatch/internal/prefetch"
	"dspatch/internal/sms"
	"dspatch/internal/spp"
)

// PF names an L2 prefetcher configuration. These are the columns of the
// paper's figures.
type PF string

// The prefetcher roster.
const (
	PFNone PF = "none"

	PFBOP  PF = "bop"
	PFEBOP PF = "ebop"
	PFSMS  PF = "sms"
	PFSPP  PF = "spp"
	PFESPP PF = "espp"
	PFAMPM PF = "ampm"

	PFStreamer PF = "streamer" // appendix pollution study fixture

	PFDSPatch PF = "dspatch"

	// Adjunct combinations (Fig. 12, 14, 15).
	PFDSPatchSPP PF = "dspatch+spp"
	PFBOPSPP     PF = "bop+spp"
	PFSMS256SPP  PF = "sms256+spp"
	PFEBOPSPP    PF = "ebop+spp"
	PFTriple     PF = "dspatch+spp+bop"

	// Fig. 19 ablation variants.
	PFDSPatchAlwaysCov PF = "dspatch-alwayscovp"
	PFDSPatchModCov    PF = "dspatch-modcovp"

	// Design-choice ablations (see the README's experiment index).
	PFDSPatchNoCompress    PF = "dspatch-nocompress"
	PFDSPatchSingleTrigger PF = "dspatch-singletrigger"
)

// AllStandalone lists the standalone prefetchers the paper compares.
var AllStandalone = []PF{PFBOP, PFSMS, PFSPP, PFDSPatch}

// AllPFs lists every selectable L2 prefetcher configuration, PFNone first.
var AllPFs = []PF{
	PFNone, PFBOP, PFEBOP, PFSMS, PFSPP, PFESPP, PFAMPM, PFStreamer,
	PFDSPatch, PFDSPatchSPP, PFBOPSPP, PFSMS256SPP, PFEBOPSPP, PFTriple,
	PFDSPatchAlwaysCov, PFDSPatchModCov, PFDSPatchNoCompress, PFDSPatchSingleTrigger,
}

// KnownPF reports whether p selects a buildable prefetcher configuration
// ("" is accepted as PFNone). Untrusted inputs — the dspatchd API — must be
// checked with it before reaching Run, whose factory panics on unknown
// selections.
func KnownPF(p PF) bool {
	if p == "" {
		return true
	}
	for _, q := range AllPFs {
		if p == q {
			return true
		}
	}
	return false
}

// factory builds the per-core constructor for the selected prefetcher.
func factory(opt Options) func() prefetch.Prefetcher {
	if opt.L2 == PFNone || opt.L2 == "" {
		return nil
	}
	mkCore := func(cfg core.Config) func() prefetch.Prefetcher {
		return func() prefetch.Prefetcher { return core.New(cfg) }
	}
	mkSPP := func(cfg spp.Config) func() prefetch.Prefetcher {
		return func() prefetch.Prefetcher { return spp.New(cfg) }
	}
	mkSMS := func(cfg sms.Config) func() prefetch.Prefetcher {
		return func() prefetch.Prefetcher { return sms.New(cfg) }
	}
	mk := func(kind PF) func() prefetch.Prefetcher {
		switch kind {
		case PFBOP:
			return func() prefetch.Prefetcher { return bop.New(bop.DefaultConfig()) }
		case PFEBOP:
			return func() prefetch.Prefetcher { return bop.New(bop.EnhancedConfig()) }
		case PFSMS:
			cfg := sms.DefaultConfig()
			if opt.SMSPHTEntries > 0 {
				cfg = cfg.WithPHTEntries(opt.SMSPHTEntries)
			}
			return mkSMS(cfg)
		case PFSPP:
			return mkSPP(spp.DefaultConfig())
		case PFESPP:
			return mkSPP(spp.EnhancedConfig())
		case PFAMPM:
			return func() prefetch.Prefetcher { return ampm.New(ampm.DefaultConfig()) }
		case PFStreamer:
			return func() prefetch.Prefetcher { return prefetch.NewStream(prefetch.DefaultStreamConfig()) }
		case PFDSPatch:
			return mkCore(core.DefaultConfig())
		case PFDSPatchAlwaysCov:
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeAlwaysCovP
			return mkCore(cfg)
		case PFDSPatchModCov:
			cfg := core.DefaultConfig()
			cfg.Mode = core.ModeModCovP
			return mkCore(cfg)
		case PFDSPatchNoCompress:
			cfg := core.DefaultConfig()
			cfg.Compress = false
			return mkCore(cfg)
		case PFDSPatchSingleTrigger:
			cfg := core.DefaultConfig()
			cfg.DualTrigger = false
			return mkCore(cfg)
		default:
			panic("sim: unknown prefetcher " + string(kind))
		}
	}
	switch opt.L2 {
	case PFDSPatchSPP:
		// SPP first: the adjunct's (often larger) candidate bursts must not
		// crowd the primary prefetcher out of the per-train issue budget.
		return func() prefetch.Prefetcher {
			return prefetch.NewComposite("dspatch+spp", mk(PFSPP)(), mk(PFDSPatch)())
		}
	case PFBOPSPP:
		return func() prefetch.Prefetcher {
			return prefetch.NewComposite("bop+spp", mk(PFSPP)(), mk(PFBOP)())
		}
	case PFSMS256SPP:
		return func() prefetch.Prefetcher {
			return prefetch.NewComposite("sms256+spp",
				mk(PFSPP)(), mkSMS(sms.IsoStorageConfig())())
		}
	case PFEBOPSPP:
		return func() prefetch.Prefetcher {
			return prefetch.NewComposite("ebop+spp", mk(PFSPP)(), mk(PFEBOP)())
		}
	case PFTriple:
		return func() prefetch.Prefetcher {
			return prefetch.NewComposite("dspatch+spp+bop",
				mk(PFSPP)(), mk(PFBOP)(), mk(PFDSPatch)())
		}
	default:
		return mk(opt.L2)
	}
}

// NewPrefetcher constructs a single instance of the named prefetcher (for
// storage accounting and unit experiments).
func NewPrefetcher(kind PF) prefetch.Prefetcher {
	f := factory(Options{L2: kind})
	if f == nil {
		return prefetch.Nop{}
	}
	return f()
}
