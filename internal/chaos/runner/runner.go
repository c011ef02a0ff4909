// Package runner executes chaos scenarios end to end: it compiles a scenario
// into an injector, drives the discrete-event simulator (with the SpotWeb
// planner in the loop) through the fault timeline, re-runs the identical
// configuration fault-free as a baseline, and distills both runs plus the
// event journal into a resilience Report. The simulator path is fully
// deterministic: the same (scenario, seed, quick) triple yields a
// byte-identical encoded report.
package runner

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/risk"
	"repro/internal/runcfg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SimOptions configures one simulated scenario run.
type SimOptions struct {
	// Scenario is the fault plan (required).
	Scenario *chaos.Scenario
	// Seed drives scenario compilation, the market catalog and the
	// simulator's natural revocation sampling.
	Seed int64
	// Quick shrinks the run (36 intervals instead of 96) for CI smoke use.
	Quick bool
	// Risk overrides the estimator configuration used for the adaptive run
	// of lying-catalog scenarios (nil = defaultRiskConfig).
	Risk *risk.Config
	// AnchorMin, when positive, is the per-period minimum non-revocable
	// (on-demand) allocation share the planner must hold — the HA anchor
	// tier. Applied to BOTH the chaos leg and the fault-free baseline so the
	// cost comparison stays fair. Ignored by the federated (region_outage)
	// path, whose sharded planner does not carry the anchor bound.
	AnchorMin float64
	// Sentinel enables the simulator's sentinel loop: a pool of stopped
	// on-demand standbys that warm-restart (skipping the cache warm-up
	// window) instead of cold-launching replacements after a revocation
	// storm.
	Sentinel bool
	// HighUtil overrides the utilization threshold of the §6.1 revocation
	// decision (0 keeps the paper's 0.85).
	HighUtil float64
	// WarningSec overrides the revocation warning period (0 keeps the
	// paper's 120 s).
	WarningSec float64
	// KKT is kept so existing assignments compile.
	//
	// Deprecated: it has no settable value and nothing reads it.
	KKT portfolio.KKTPath
	// ColdStart disables warm-started receding-horizon solves. Results are
	// identical; only solve times change.
	ColdStart bool
	// Parallelism bounds the planner's worker pool (portfolio.Config
	// semantics). Results are bit-identical at any setting.
	Parallelism int
	// UseRisk attaches a fresh online risk estimator to every leg of a
	// STANDARD scenario run (chaos and baseline alike, so the comparison
	// stays fair): the simulator feeds it ground truth and the planner
	// consults its overlay. CatalogLie scenarios ignore it — their adaptive
	// leg always runs an estimator (configured by Risk above).
	UseRisk bool
	// RiskQuantile / RiskHalfLife override the UseRisk estimator's
	// upper-credible-bound quantile and evidence half-life (0 = defaults).
	RiskQuantile float64
	RiskHalfLife float64
}

// OptionsFrom maps the shared RunConfig onto a scenario's SimOptions — the
// glue that lets cmd/spotweb-chaos and the sweep engine drive runs from the
// one unified option struct. Zero-value RunConfig fields keep the published
// behaviour, so OptionsFrom of an empty config reproduces the golden
// reports byte-for-byte.
func OptionsFrom(sc *chaos.Scenario, rc runcfg.RunConfig) SimOptions {
	return SimOptions{
		Scenario: sc, Seed: rc.RunSeed(), Quick: rc.Quick,
		AnchorMin: rc.AnchorMin, Sentinel: rc.Sentinel,
		HighUtil: rc.HighUtil, WarningSec: rc.WarningSec,
		ColdStart: rc.ColdStart, Parallelism: rc.Parallelism,
		UseRisk: rc.Risk, RiskQuantile: rc.RiskQuantile, RiskHalfLife: rc.RiskHalfLife,
	}
}

// recoveryTargetPct is the SLO-attainment level (percent) a run must regain
// for a below-target episode to close; see chaos.RecoveryFromSeries. 99 is
// the paper's availability target for latency-sensitive services.
const recoveryTargetPct = 99

// scoreRecovery fills the report's recovery-time fields from a chaos leg's
// sub-step attainment series: the worst first-fault → back-above-target
// episode in seconds, the episode count, and the compact per-interval
// attainment series the goldens publish.
func scoreRecovery(rep *chaos.Report, res *sim.Result, opt SimOptions, intervals int) {
	rep.RecoveryTargetPct = recoveryTargetPct
	rep.RecoverySecs, rep.RecoveryEpisodes = chaos.RecoveryFromSeries(res.Attainment, recoveryTargetPct)
	rep.AttainmentSeries = chaos.DownsampleAttainment(res.Attainment, intervals)
	rep.Restarts = res.Restarts
	rep.AnchorMin = opt.AnchorMin
	rep.Sentinel = opt.Sentinel
}

// defaultRiskConfig is the estimator configuration for adaptive comparison
// runs: a moderate upper credible bound, a half-life spanning the whole
// quick (36-interval) run so the scarce exposure is kept rather than decayed
// away, and mild demand-pool sharing — enough that a condemned market's
// group-mates inherit suspicion, but not so much that one noisy neighbor
// prices a clean market out of the portfolio. The changepoint detector is
// detuned relative to the library default — the synthetic price processes
// mean-revert with occasional genuine excursions, and a false trip that
// wipes the evidence window costs far more here than a late reaction to a
// real shift.
func defaultRiskConfig() risk.Config {
	return risk.Config{
		Quantile:    0.85,
		HalfLifeHrs: 48,
		PoolWeight:  0.3,
		Changepoint: risk.ChangepointConfig{
			Threshold: 24,
			Drift:     2,
			Forget:    0.85,
		},
	}
}

// simWorkload builds the standard chaos workload: low utilization through
// the first third of the run, a linear climb, then sustained high load from
// 60% onward — the shape the built-in scenario timings assume (an early
// storm lands in headroom, late storms land under pressure). Closed-form and
// seedless, so it never perturbs determinism.
func simWorkload(n int, cat *market.Catalog) *trace.Series {
	var meanCap float64
	transients := 0
	for _, m := range cat.Markets {
		if m.Transient {
			meanCap += m.Type.Capacity
			transients++
		}
	}
	if transients > 0 {
		meanCap /= float64(transients)
	}
	// High load sized for a ~9-server fleet at healthy utilization; low load
	// is a third of that.
	high := 9 * meanCap * 0.8
	low := high / 3
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i) / float64(n-1)
		switch {
		case x < 1.0/3:
			vals[i] = low
		case x < 0.6:
			vals[i] = low + (high-low)*(x-1.0/3)/(0.6-1.0/3)
		default:
			vals[i] = high
		}
	}
	return &trace.Series{Name: "chaos-ramp", StepHrs: cat.StepHrs, Values: vals}
}

// spikedCatalog returns a copy of the catalog with price-spike faults applied
// to the price series — a pre-transform, so the planner sees the spike (and
// re-plans around it) and billing charges it, rather than a hidden surcharge.
func spikedCatalog(cat *market.Catalog, in *chaos.Injector) *market.Catalog {
	if in == nil {
		return cat
	}
	out := &market.Catalog{StepHrs: cat.StepHrs, Intervals: cat.Intervals}
	n := cat.Intervals
	for i, m := range cat.Markets {
		mm := *m
		vals := make([]float64, len(m.Price.Values))
		copy(vals, m.Price.Values)
		for t := range vals {
			// Interval t maps to the same normalized time the simulator
			// uses: the run starts at interval 1.
			x := float64(t-1) / float64(n-1)
			if f := in.PriceFactor(x, i); f != 1 {
				vals[t] *= f
			}
		}
		price := *m.Price
		price.Values = vals
		mm.Price = &price
		out.Markets = append(out.Markets, &mm)
	}
	return out
}

// applyLie derives the DECLARED catalog (what the planner and the
// estimator's prior see) from the freshly generated TRUTH catalog, then
// rewrites the truth's targeted failure series per the lie. The declared
// series are captured before the truth overrides, so a stale declaration
// freezes the pre-drift interval-0 values.
func applyLie(truth *market.Catalog, lie *chaos.CatalogLie) *market.Catalog {
	declared := &market.Catalog{StepHrs: truth.StepHrs, Intervals: truth.Intervals}
	for _, m := range truth.Markets {
		mm := *m
		if m.Transient {
			v := lie.DeclaredFailProb
			if lie.Stale {
				v = m.FailProb.Values[0]
			}
			fp := *m.FailProb
			fp.Values = make([]float64, len(m.FailProb.Values))
			for i := range fp.Values {
				fp.Values[i] = v
			}
			mm.FailProb = &fp
		}
		declared.Markets = append(declared.Markets, &mm)
	}
	target := map[int]bool{}
	for _, g := range lie.Groups {
		target[g] = true
	}
	for _, m := range truth.Markets {
		if !m.Transient || (len(lie.Groups) > 0 && !target[m.Group]) {
			continue
		}
		fp := *m.FailProb
		fp.Values = append([]float64(nil), m.FailProb.Values...)
		for i := range fp.Values {
			switch {
			case lie.ActualFailProb > 0:
				fp.Values[i] = lie.ActualFailProb
			case lie.ActualScale > 0:
				fp.Values[i] *= lie.ActualScale
				if fp.Values[i] > 0.5 {
					fp.Values[i] = 0.5
				}
			}
		}
		m.FailProb = &fp
	}
	return declared
}

// plannerPolicy adapts the portfolio planner to sim.Policy.
type plannerPolicy struct {
	planner *portfolio.Planner
	name    string
}

func (p plannerPolicy) Name() string {
	if p.name != "" {
		return p.name
	}
	return "spotweb"
}

func (p plannerPolicy) Decide(t int, observed float64) ([]int, error) {
	dec, err := p.planner.Step(t, observed)
	if err != nil {
		return nil, err
	}
	return dec.Counts, nil
}

// runSpec is one simulation leg. simCat drives revocation sampling and
// billing (the truth); planCat feeds the planner's forecasts, covariance and
// the estimator's prior (the declaration). They are the same catalog except
// under a CatalogLie.
type runSpec struct {
	simCat, planCat *market.Catalog
	cfg             portfolio.Config
	wl              *trace.Series
	seed            int64
	in              *chaos.Injector
	j               *metrics.Journal
	est             *risk.Estimator
	name            string
	sentinel        bool
	highUtil        float64
	warningSec      float64
	subSteps        int
	scratch         *sim.Scratch
}

// runOnce executes one simulation leg.
func runOnce(rs runSpec) (*sim.Result, error) {
	wp := predict.NewSplinePredictor(predict.SplineConfig{
		StepHrs: rs.planCat.StepHrs, ARLag1: true, CIProb: 0.99,
	}, rs.cfg.Horizon)
	planner := portfolio.NewPlanner(rs.cfg, rs.planCat, wp, portfolio.MeanRevertSource{Cat: rs.planCat})
	scfg := sim.Config{
		Seed:            rs.seed,
		TransiencyAware: true,
		Chaos:           rs.in,
		Journal:         rs.j,
		Sentinel:        rs.sentinel,
		HighUtil:        rs.highUtil,
		WarningSec:      rs.warningSec,
		SubSteps:        rs.subSteps,
	}
	if rs.est != nil {
		// Adaptive leg: the simulator feeds the estimator ground truth
		// synchronously and the planner pulls its overlay every round.
		planner.RiskOverlay = rs.est
		scfg.Risk = rs.est
	}
	s := &sim.Simulator{
		Cfg:      scfg,
		Cat:      rs.simCat,
		Workload: rs.wl,
		Policy:   plannerPolicy{planner: planner, name: rs.name},
		Scratch:  rs.scratch,
	}
	return s.Run()
}

// applyPlannerOpts threads the solver-shaping SimOptions fields into a leg's
// portfolio configuration. Both leave the solution bit-identical (warm
// starting and worker count change only solve times), so the zero values
// reproduce the golden reports.
func applyPlannerOpts(cfg *portfolio.Config, opt SimOptions) {
	cfg.DisableWarmStart = opt.ColdStart
	cfg.Parallelism = opt.Parallelism
}

// newLegEstimator builds the per-leg online risk estimator when UseRisk is
// set; declared is the catalog whose failure declarations seed its prior.
// Returns nil (estimator-free leg, the published default) otherwise.
func newLegEstimator(opt SimOptions, declared *market.Catalog) *risk.Estimator {
	if !opt.UseRisk {
		return nil
	}
	return risk.New(risk.Config{Quantile: opt.RiskQuantile, HalfLifeHrs: opt.RiskHalfLife}, declared)
}

// basePortfolioConfig caps any single market at 40% of the allocation so the
// portfolio spreads over several markets — a Count=1 storm then removes a
// slice of capacity, not the whole fleet.
func basePortfolioConfig() portfolio.Config {
	return portfolio.Config{AMaxPerMarket: 0.4}.WithDefaults()
}

// BasePortfolioConfig exposes the standard-scenario planner configuration
// (40% per-market cap over library defaults) for callers that need to build
// planner legs outside RunSim — notably benchmark setup.
func BasePortfolioConfig() portfolio.Config { return basePortfolioConfig() }

// IsStandard reports whether a scenario runs on the standard single-region
// simulation path — no catalog lie, no region outage. Standard scenarios are
// the ones whose inputs a StandardEnv can precompile and share.
func IsStandard(sc *chaos.Scenario) bool {
	return sc.CatalogLie == nil && !hasRegionOutage(sc)
}

// ScenarioHours is the run length RunSim uses for the quick flag: 96
// simulated intervals normally, 36 for CI-sized runs.
func ScenarioHours(quick bool) int {
	if quick {
		return 36
	}
	return 96
}

// StandardCatalog generates the catalog every standard (non-lie,
// non-federated) scenario run simulates against: 3 instance types plus
// on-demand across 2 demand pools. Exported so the sweep engine can build it
// once per (seed, hours) and share the immutable result across scenarios.
func StandardCatalog(seed int64, hours int) *market.Catalog {
	return market.CatalogConfig{
		Seed:            seed,
		NumTypes:        3,
		IncludeOnDemand: true,
		Hours:           hours,
		SamplesPerHour:  1,
		Groups:          2,
		BaseFailProb:    0.02,
	}.Generate()
}

// StandardEnv is the precompiled input set of a standard scenario run: the
// truth catalog, the compiled fault injector, the spike-transformed catalog
// the planner and biller see, and the workload. Everything here is read-only
// during simulation, so one env can serve any number of concurrent
// RunStandard calls, and the Cat field can be shared between the envs of
// different scenarios at the same (seed, hours).
type StandardEnv struct {
	Scenario *chaos.Scenario
	Seed     int64
	Hours    int
	// SubSteps overrides the within-interval simulation resolution for every
	// leg run from this env (0 = the simulator default, 60). Reports are only
	// comparable across runs with equal SubSteps.
	SubSteps int
	Cat      *market.Catalog // fault-free truth catalog
	Spiked   *market.Catalog // price-spike view the chaos leg plans and bills on
	Injector *chaos.Injector
	Workload *trace.Series
}

// NewStandardEnv compiles a standard scenario into a reusable env, generating
// a fresh catalog. Equivalent to NewStandardEnvWithCatalog(sc, seed, hours,
// StandardCatalog(seed, hours)).
func NewStandardEnv(sc *chaos.Scenario, seed int64, hours int) (*StandardEnv, error) {
	return NewStandardEnvWithCatalog(sc, seed, hours, StandardCatalog(seed, hours))
}

// NewStandardEnvWithCatalog compiles a standard scenario against a prebuilt
// catalog, which must be StandardCatalog(seed, hours) (or bit-identical) for
// reports to match RunSim. The catalog is not mutated — the price-spike
// transform copies the affected series.
func NewStandardEnvWithCatalog(sc *chaos.Scenario, seed int64, hours int, cat *market.Catalog) (*StandardEnv, error) {
	if !IsStandard(sc) {
		return nil, fmt.Errorf("runner: scenario %q is not a standard scenario (catalog lie or region outage)", sc.Name)
	}
	in, err := chaos.Compile(sc, seed, cat.Len())
	if err != nil {
		return nil, err
	}
	return &StandardEnv{
		Scenario: sc,
		Seed:     seed,
		Hours:    hours,
		Cat:      cat,
		Spiked:   spikedCatalog(cat, in),
		Injector: in,
		Workload: simWorkload(hours, cat),
	}, nil
}

// RunStandard executes a standard scenario from a prebuilt env and assembles
// its report. This is the single code path behind both RunSim and the sweep
// engine, so a sweep cell and a standalone run of the same (env, options)
// produce byte-identical encoded reports.
//
// scratch, when non-nil, supplies reusable simulator working memory (one
// Scratch per worker — a Scratch must never be shared by concurrent runs).
// baseline, when non-nil, is a previously returned fault-free leg result for
// this exact (seed, hours, options) and is trusted instead of re-running the
// leg; the second return value is the baseline actually used, so callers can
// cache it across the scenarios of a sweep (the fault-free leg does not
// depend on the scenario). Options fields Scenario/Seed/Quick/Risk are
// ignored here — the env carries the scenario, seed and run length.
func RunStandard(env *StandardEnv, opt SimOptions, scratch *sim.Scratch, baseline *sim.Result) (*chaos.Report, *sim.Result, error) {
	cfg := basePortfolioConfig()
	cfg.AMinOnDemand = opt.AnchorMin
	applyPlannerOpts(&cfg, opt)

	j := metrics.NewJournal(8192)
	res, err := runOnce(runSpec{
		simCat: env.Spiked, planCat: env.Spiked,
		cfg: cfg, wl: env.Workload, seed: env.Seed, in: env.Injector, j: j,
		sentinel: opt.Sentinel, highUtil: opt.HighUtil, warningSec: opt.WarningSec,
		subSteps: env.SubSteps, est: newLegEstimator(opt, env.Spiked), scratch: scratch,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("runner: chaos run: %w", err)
	}
	base := baseline
	if base == nil {
		base, err = runOnce(runSpec{
			simCat: env.Cat, planCat: env.Cat,
			cfg: cfg, wl: env.Workload, seed: env.Seed,
			sentinel: opt.Sentinel, highUtil: opt.HighUtil, warningSec: opt.WarningSec,
			subSteps: env.SubSteps, est: newLegEstimator(opt, env.Cat), scratch: scratch,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("runner: baseline run: %w", err)
		}
	}

	rep := &chaos.Report{
		Scenario:             env.Scenario.Name,
		Seed:                 env.Seed,
		Policy:               res.Policy,
		Intervals:            env.Hours,
		Markets:              env.Cat.Len(),
		InjectedRevocations:  res.InjectedRevocations,
		NaturalRevocations:   res.Revocations - res.InjectedRevocations,
		Actions:              make(map[string]int64, len(res.Actions)),
		EventCounts:          j.Counts(),
		SLOAttainmentPct:     100 - res.ViolationPct,
		ViolationPct:         res.ViolationPct,
		DropFraction:         res.DropFraction(),
		DroppedReqs:          res.Dropped,
		MeanLatencySec:       res.MeanLatency,
		OverloadSecs:         res.OverloadSecs,
		AdmissionEvents:      int64(res.AdmissionEvents),
		CostUSD:              res.TotalCost,
		BaselineCostUSD:      base.TotalCost,
		BaselineViolationPct: base.ViolationPct,
	}
	for k, v := range res.Actions {
		rep.Actions[k] = int64(v)
	}
	if base.TotalCost > 0 {
		rep.CostDeltaPct = 100 * (res.TotalCost - base.TotalCost) / base.TotalCost
	}
	scoreRecovery(rep, res, opt, env.Hours)
	rep.Finalize()
	return rep, base, nil
}

// RunSim executes a scenario on the simulator and returns its resilience
// report (finalized, ready to encode). Scenarios with a CatalogLie run in
// comparison mode: the primary report fields score the oracle-prior planner
// (it trusts the declared catalog, like every other scenario) and the
// Adaptive section scores the risk-estimator planner under identical
// faults, workload and seed.
func RunSim(opt SimOptions) (*chaos.Report, error) {
	if opt.Scenario == nil {
		return nil, fmt.Errorf("runner: Scenario is required")
	}
	if opt.Scenario.CatalogLie != nil {
		return runLieSim(opt)
	}
	if hasRegionOutage(opt.Scenario) {
		return runFedSim(opt)
	}
	env, err := NewStandardEnv(opt.Scenario, opt.Seed, ScenarioHours(opt.Quick))
	if err != nil {
		return nil, err
	}
	rep, _, err := RunStandard(env, opt, nil, nil)
	return rep, err
}

// runLieSim executes a CatalogLie scenario in adaptive-vs-oracle-prior
// comparison mode. The lie catalog is wider than the standard one — 6
// instance types over 3 demand pools — so an adaptive planner that learns
// one pool is deadly has enough clean transient capacity (4 markets × 40%
// cap) to route around it without falling back to on-demand prices.
func runLieSim(opt SimOptions) (*chaos.Report, error) {
	lie := opt.Scenario.CatalogLie
	hours := ScenarioHours(opt.Quick)
	truth := market.CatalogConfig{
		Seed:            opt.Seed,
		NumTypes:        6,
		IncludeOnDemand: true,
		Hours:           hours,
		SamplesPerHour:  1,
		Groups:          3,
		BaseFailProb:    0.02,
	}.Generate()
	declared := applyLie(truth, lie)
	in, err := chaos.Compile(opt.Scenario, opt.Seed, truth.Len())
	if err != nil {
		return nil, err
	}
	wl := simWorkload(hours, truth)
	spTruth := spikedCatalog(truth, in)
	spDecl := spikedCatalog(declared, in)

	// The failure probability only steers the MPO through the Eq. 4 term
	// P·f·λ·L, so the comparison runs with a nonzero long-request fraction;
	// both legs share the configuration, keeping the comparison fair. The
	// per-market cap is loosened to 0.5 so that after the estimator condemns
	// the deceitful pool, the remaining clean pool can still cover the
	// allocation floor on spot capacity instead of spilling to on-demand.
	cfg := basePortfolioConfig()
	cfg.LongRequestFrac = 0.3
	cfg.AMaxPerMarket = 0.5
	cfg.AMinOnDemand = opt.AnchorMin
	applyPlannerOpts(&cfg, opt)

	jOracle := metrics.NewJournal(8192)
	oracle, err := runOnce(runSpec{
		simCat: spTruth, planCat: spDecl,
		cfg: cfg, wl: wl, seed: opt.Seed, in: in, j: jOracle,
		sentinel: opt.Sentinel, highUtil: opt.HighUtil, warningSec: opt.WarningSec,
	})
	if err != nil {
		return nil, fmt.Errorf("runner: oracle-prior run: %w", err)
	}

	riskCfg := defaultRiskConfig()
	if opt.Risk != nil {
		riskCfg = *opt.Risk
	}
	est := risk.New(riskCfg, spDecl)
	adaptive, err := runOnce(runSpec{
		simCat: spTruth, planCat: spDecl,
		cfg: cfg, wl: wl, seed: opt.Seed, in: in,
		j: metrics.NewJournal(8192), est: est, name: "spotweb-adaptive",
		sentinel: opt.Sentinel, highUtil: opt.HighUtil, warningSec: opt.WarningSec,
	})
	if err != nil {
		return nil, fmt.Errorf("runner: adaptive run: %w", err)
	}

	base, err := runOnce(runSpec{
		simCat: truth, planCat: declared,
		cfg: cfg, wl: wl, seed: opt.Seed,
		sentinel: opt.Sentinel, highUtil: opt.HighUtil, warningSec: opt.WarningSec,
	})
	if err != nil {
		return nil, fmt.Errorf("runner: baseline run: %w", err)
	}

	rep := &chaos.Report{
		Scenario:             opt.Scenario.Name,
		Seed:                 opt.Seed,
		Policy:               oracle.Policy,
		Intervals:            hours,
		Markets:              truth.Len(),
		InjectedRevocations:  oracle.InjectedRevocations,
		NaturalRevocations:   oracle.Revocations - oracle.InjectedRevocations,
		Actions:              make(map[string]int64, len(oracle.Actions)),
		EventCounts:          jOracle.Counts(),
		SLOAttainmentPct:     100 - oracle.ViolationPct,
		ViolationPct:         oracle.ViolationPct,
		DropFraction:         oracle.DropFraction(),
		DroppedReqs:          oracle.Dropped,
		MeanLatencySec:       oracle.MeanLatency,
		OverloadSecs:         oracle.OverloadSecs,
		AdmissionEvents:      int64(oracle.AdmissionEvents),
		CostUSD:              oracle.TotalCost,
		BaselineCostUSD:      base.TotalCost,
		BaselineViolationPct: base.ViolationPct,
		Adaptive: &chaos.AdaptiveComparison{
			SLOAttainmentPct:    100 - adaptive.ViolationPct,
			ViolationPct:        adaptive.ViolationPct,
			DropFraction:        adaptive.DropFraction(),
			CostUSD:             adaptive.TotalCost,
			Revocations:         adaptive.Revocations,
			InjectedRevocations: adaptive.InjectedRevocations,
			Changepoints:        est.Changepoints(),
			MeanAbsDivergence:   est.MeanAbsDivergence(),
		},
	}
	for k, v := range oracle.Actions {
		rep.Actions[k] = int64(v)
	}
	if base.TotalCost > 0 {
		rep.CostDeltaPct = 100 * (oracle.TotalCost - base.TotalCost) / base.TotalCost
	}
	scoreRecovery(rep, oracle, opt, hours)
	rep.Adaptive.RecoverySecs, _ = chaos.RecoveryFromSeries(adaptive.Attainment, recoveryTargetPct)
	rep.Finalize()
	return rep, nil
}
