// Package runcfg defines RunConfig, the one option set shared by every way
// of driving a SpotWeb run: the experiment harness (internal/experiments),
// the daemons (cmd/spotwebd), the figure runner (cmd/spotweb-sim), the chaos
// runner (cmd/spotweb-chaos) and the scenario lab (internal/sweep,
// cmd/spotweb-sweep). Each of these used to thread the same knobs by hand;
// RunConfig plus the BindFlags helpers keep them to one definition, one set
// of defaults and one help string per knob.
//
// The zero value is the paper's configuration: every field is an override
// and 0/false keeps the published behaviour, so a RunConfig can be embedded
// in grid files and JSON artifacts where absent fields mean "as published".
package runcfg

import (
	"flag"

	"repro/internal/market"
	"repro/internal/portfolio"
)

// RunConfig controls run size, determinism and the policy/simulator knobs of
// one SpotWeb run. It is the declarative unit a sweep varies per cell.
type RunConfig struct {
	// Quick shrinks trace lengths / durations for test-sized runs.
	Quick bool `json:"quick,omitempty"`
	// Seed makes runs reproducible (0 selects the default seed 42).
	Seed int64 `json:"seed,omitempty"`
	// Parallelism bounds the optimizer worker pool (portfolio.Config
	// semantics: 0/1 serial, n > 1 bounded, negative all cores). Results are
	// bit-identical at any setting; only the solve times change.
	Parallelism int `json:"parallelism,omitempty"`
	// HighUtil overrides the utilization threshold of the §6.1 revocation
	// decision (0 keeps the paper's 0.85).
	HighUtil float64 `json:"high_util,omitempty"`
	// WarningSec overrides the revocation warning period (0 keeps the
	// paper's 120 s).
	WarningSec float64 `json:"warning_sec,omitempty"`
	// ColdStart disables warm-started receding-horizon solves (the
	// -warm-start=false path): every round then solves from scratch, which
	// reproduces strictly independent per-round solves at a severalfold
	// iteration cost (see DESIGN.md §9).
	ColdStart bool `json:"cold_start,omitempty"`
	// Risk attaches the online revocation-risk estimator (internal/risk) to
	// every SpotWeb policy a run uses: the simulator feeds it ground truth
	// and the planner consults its confidence-widened overlay instead of
	// the raw catalog probabilities (the -risk path; see DESIGN.md §12).
	Risk bool `json:"risk,omitempty"`
	// RiskQuantile overrides the estimator's upper-credible-bound quantile
	// (0 keeps the default 0.90).
	RiskQuantile float64 `json:"risk_quantile,omitempty"`
	// RiskHalfLife overrides the evidence half-life in catalog-hours
	// (0 keeps the default 24).
	RiskHalfLife float64 `json:"risk_halflife,omitempty"`
	// AnchorMin, when positive, is the per-period minimum on-demand
	// (non-revocable) allocation share every SpotWeb policy must hold — the
	// HA anchor tier (portfolio.Config.AMinOnDemand). 0 keeps the paper's
	// unconstrained portfolio.
	AnchorMin float64 `json:"anchor_min,omitempty"`
	// Sentinel enables the simulator's sentinel loop: stopped on-demand
	// standbys warm-restart after revocations instead of cold launches.
	Sentinel bool `json:"sentinel,omitempty"`
}

// Anchor applies the HA knobs to a policy's portfolio configuration.
// The on-demand floor needs non-revocable capacity to anchor to, so it is
// applied only when the catalog carries at least one non-transient market —
// the paper's all-spot figure catalogs run unchanged. With AnchorMin == 0 the
// returned config is identical to the input.
func (o RunConfig) Anchor(cfg portfolio.Config, cat *market.Catalog) portfolio.Config {
	if o.AnchorMin <= 0 {
		return cfg
	}
	for _, m := range cat.Markets {
		if !m.Transient {
			cfg.AMinOnDemand = o.AnchorMin
			return cfg
		}
	}
	return cfg
}

// RunSeed resolves the seed override: 0 selects the default seed 42, the
// value every figure and golden report is generated with.
func (o RunConfig) RunSeed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// Flags holds the parsed destinations of the shared flag set. -warm-start is
// spelled positively on the command line but RunConfig stores its inverse
// (the zero value must mean "paper behaviour", i.e. warm starts on), so the
// boolean is flipped in Config.
type Flags struct {
	rc        RunConfig
	warmStart bool
}

// BindFlags registers the full shared RunConfig flag set on fs and returns
// the destination struct. Call before fs.Parse; read the result with Config.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := bindCommon(fs)
	fs.BoolVar(&f.rc.Quick, "quick", false, "shrink durations for a fast run")
	fs.Float64Var(&f.rc.WarningSec, "warning", 120, "revocation warning period in seconds")
	return f
}

// BindDaemonFlags registers the RunConfig subset meaningful to long-running
// daemons: no -quick (daemons have no run length) and no -warning override
// (daemons take a wall-clock -warning duration of their own).
func BindDaemonFlags(fs *flag.FlagSet) *Flags {
	return bindCommon(fs)
}

func bindCommon(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Int64Var(&f.rc.Seed, "seed", 42, "random seed")
	fs.IntVar(&f.rc.Parallelism, "parallelism", 0, "optimizer worker bound: 0/1 serial, n>1 up to n workers, <0 all cores")
	fs.Float64Var(&f.rc.HighUtil, "high-util", 0.85, "utilization threshold of the §6.1 revocation decision")
	fs.BoolVar(&f.warmStart, "warm-start", true, "warm-start receding-horizon solves from the previous round's shifted solver state")
	fs.Float64Var(&f.rc.AnchorMin, "anchor-min", 0, "minimum per-period on-demand (non-revocable) allocation share (0 = off; inert on all-spot catalogs)")
	fs.BoolVar(&f.rc.Sentinel, "sentinel", false, "enable the sentinel loop: stopped on-demand standbys warm-restart after revocations")
	fs.BoolVar(&f.rc.Risk, "risk", false, "estimate per-market revocation risk online from observed revocations and plan against the corrected probabilities")
	fs.Float64Var(&f.rc.RiskQuantile, "risk-quantile", 0, "risk estimator upper-credible-bound quantile (0 = default 0.90)")
	fs.Float64Var(&f.rc.RiskHalfLife, "risk-halflife", 0, "risk estimator evidence half-life in catalog-hours (0 = default 24)")
	return f
}

// Config returns the parsed RunConfig.
func (f *Flags) Config() RunConfig {
	rc := f.rc
	rc.ColdStart = !f.warmStart
	return rc
}
