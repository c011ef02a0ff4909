package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/risk"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// sweepWorkers is the sweep's worker count, sized for a 2-core host.
const sweepWorkers = 2

// sweepLeg runs quick chaos-suite grids through sweep.Run.
type sweepLeg struct {
	// grids are run back to back as one batch.
	grids []sweep.Grid
	// timed is how many leading grids cells_per_s is timed on: those whose
	// inputs do not depend on the run's seed.
	timed  int
	passes int // least batches an untraced run makes
	// arts are the artifacts of the first untraced batch; the traced pass
	// checks its rebuilt legs against them.
	arts []*sweep.Artifact
}

// sweepCoreBase is the base seed of the first fixed core grid.
const sweepCoreBase = 1_000_001

// newSweepLeg builds the leg's grids: core/seedIdxs fixed grids (at base
// seeds from sweepCoreBase on), then one grid drawn from the run's seed,
// each of seedIdxs seed indices.
//
// cells_per_s is timed on the fixed grids only. Per-cell cost varies with
// the catalogs a base seed draws: from one seed to the next, the drawn grid
// took from 0.9 to 1.8 times as long as a fixed grid's mean, so a rate over
// every grid moved by up to 18% with the draw alone, more than a code change
// moves it. The drawn grid still runs, is checked, and counts
// in sim_cost_usd and sim_slo_pct. A leg without a core (the slice, whose
// seed is always refSeed) times its one grid.
func newSweepLeg(seed int64, core, seedIdxs, passes int) *sweepLeg {
	l := &sweepLeg{passes: passes}
	for k := 0; k < core/seedIdxs; k++ {
		g := sweep.ChaosSuiteGrid(seedIdxs, true)
		g.BaseSeed = sweepCoreBase + int64(k)
		l.grids = append(l.grids, g)
	}
	l.timed = max(len(l.grids), 1)
	g := sweep.ChaosSuiteGrid(seedIdxs, true)
	g.BaseSeed = seed
	l.grids = append(l.grids, g)
	return l
}

func (l *sweepLeg) name() string { return "sweep-chaos" }
func (l *sweepLeg) close()       { l.arts = nil }

func (l *sweepLeg) setup() error {
	for _, g := range l.grids {
		if err := g.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// cells counts the cells of grids.
func cells(grids []sweep.Grid) int {
	n := 0
	for _, g := range grids {
		n += g.CellCount()
	}
	return n
}

func (l *sweepLeg) run(budget time.Duration, traced bool) (*legResult, error) {
	if traced {
		return l.runTraced()
	}
	res := newLegResult()
	var rates []float64
	var first [][]byte
	// best is each grid's fastest sweep.Run over the batches: on a shared
	// host contention only slows a run down, so the fastest one is the
	// steadiest estimate of what the code does.
	best := make([]time.Duration, len(l.grids))
	start := time.Now()
	var wall time.Duration
	for len(rates) < l.passes || time.Since(start)+wall <= budget {
		beginRep()
		wall = 0
		var arts []*sweep.Artifact
		for i, g := range l.grids {
			t0 := time.Now()
			art, _, err := sweep.Run(g, sweep.Options{Workers: sweepWorkers})
			d := time.Since(t0)
			wall += d
			if best[i] == 0 || d < best[i] {
				best[i] = d
			}
			res.attempted += g.CellCount()
			if err != nil {
				res.failed += g.CellCount()
				return res, fmt.Errorf("sweep.Run: %w", err)
			}
			arts = append(arts, art)
		}
		endRep(res)
		n := cells(l.grids)
		rates = append(rates, float64(n)/wall.Seconds())
		res.opWall = append(res.opWall, float64(wall)/float64(n))
		logf("sweep batch %d: %d cells in %.2fs, %.1f cells/s", len(rates), n, wall.Seconds(), rates[len(rates)-1])
		for i, art := range arts {
			b, err := art.EncodeJSON()
			if err != nil {
				return res, err
			}
			switch {
			case first == nil || len(first) <= i:
				first = append(first, b)
				l.check(res, l.grids[i], art)
			case !bytes.Equal(first[i], b):
				res.problem("sweep artifact differs between batches of one run")
			}
		}
		if l.arts == nil {
			l.arts = arts
		}
	}
	var cost, slo, n float64
	for _, art := range l.arts {
		for _, c := range art.Cells {
			cost += c.CostUSD
			slo += c.SLOAttainmentPct
			n++
		}
	}
	var bestWall time.Duration
	for i, d := range best {
		if i < l.timed {
			bestWall += d
		}
		logf("sweep grid %d (base seed %d): fastest run %.3fs, %.1f cells/s", i+1, l.grids[i].BaseSeed,
			d.Seconds(), float64(l.grids[i].CellCount())/d.Seconds())
	}
	res.e2e["cells_per_s"] = float64(cells(l.grids[:l.timed])) / bestWall.Seconds()
	res.e2e["sim_cost_usd"] = cost / n
	res.e2e["sim_slo_pct"] = slo / n
	return res, nil
}

// check applies the output checks that do not depend on timing.
func (l *sweepLeg) check(res *legResult, g sweep.Grid, art *sweep.Artifact) {
	if got, want := len(art.Cells), g.CellCount(); got != want {
		res.problem(fmt.Sprintf("sweep produced %d cells, grid has %d", got, want))
		return
	}
	for _, c := range art.Cells {
		for _, v := range []float64{c.Score, c.SLOAttainmentPct, c.ViolationPct, c.DropFraction,
			c.CostUSD, c.BaselineCostUSD, c.CostDeltaPct, c.RecoverySecs} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.problem(fmt.Sprintf("cell %v has a non-finite value", c.CellRef))
				return
			}
		}
		if c.CostUSD <= 0 || c.SLOAttainmentPct < 0 || c.SLOAttainmentPct > 100 {
			res.problem(fmt.Sprintf("cell %v out of range: cost %v, SLO %v%%", c.CellRef, c.CostUSD, c.SLOAttainmentPct))
			return
		}
	}
	// Rerun one cell standalone; it must match its artifact row exactly.
	row := art.Cells[int(uint64(g.BaseSeed)%uint64(len(art.Cells)))]
	rep, err := sweep.RunCell(g, row.CellRef)
	if err != nil {
		res.problem(fmt.Sprintf("RunCell %v: %v", row.CellRef, err))
		return
	}
	if rep.CostUSD != row.CostUSD || rep.SLOAttainmentPct != row.SLOAttainmentPct ||
		rep.Score != row.Score || rep.BaselineCostUSD != row.BaselineCostUSD ||
		rep.RecoverySecs != row.RecoverySecs || rep.InjectedRevocations != row.InjectedRevocations {
		res.problem(fmt.Sprintf("RunCell %v differs from its artifact row", row.CellRef))
	}
}

// runTraced rebuilds every cell's legs from public pieces, with timing
// wrappers around sim.Policy, predict.Predictor and sim.RiskObserver, and
// checks that each rebuilt leg reproduces the untraced run's cost and SLO
// violation exactly. The artifacts of the untraced pass are the reference.
func (l *sweepLeg) runTraced() (*legResult, error) {
	res := newLegResult()
	if len(l.arts) != len(l.grids) {
		return res, fmt.Errorf("traced sweep needs an untraced batch first")
	}
	tr := newTracer()
	t0 := time.Now()
	var rounds []roundRec
	for i, g := range l.grids {
		recs, err := tracedGrid(res, tr, g, l.arts[i])
		if err != nil {
			return res, err
		}
		rounds = append(rounds, recs...)
	}
	wall := time.Since(t0)
	res.opWall = []float64{float64(wall) / float64(cells(l.grids))}
	res.spans = tr.spans

	lt := selfTimes(tr.spans)
	if c := lt["sweep.cell"]; c != nil {
		s := sorted(c.durs)
		res.layers["sweep.cell_ms_p50"] = pct(s, 50) / 1e6
		res.layers["sweep.cell_ms_p90"] = tailValue("sweep.cell_ms_p90", s, 90) / 1e6
	}
	if c := lt["sim.run"]; c != nil {
		res.layers["sim.self_ms_per_leg"] = float64(c.own) / 1e6 / float64(c.calls)
	}
	if c := lt["risk.observe"]; c != nil {
		res.layers["risk.observe_us"] = float64(c.total) / 1e3 / float64(c.calls)
	}
	decisionLayers(res, lt, rounds)
	return res, nil
}

// tracedGrid runs one grid's cells through rebuilt, traced legs on
// sweepWorkers goroutines, grouped by (seed, variant) as the sweep engine
// groups them, and checks every cell against its artifact row.
func tracedGrid(res *legResult, tr *tracer, g sweep.Grid, art *sweep.Artifact) ([]roundRec, error) {
	hours := runner.ScenarioHours(g.Quick)
	scs := make([]*chaos.Scenario, len(g.Scenarios))
	for i, name := range g.Scenarios {
		sc, err := chaos.Resolve(name)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}
	envs := make([][]*runner.StandardEnv, g.Seeds)
	for si := range envs {
		seed := sweep.SeedFor(g.BaseSeed, si)
		cat := runner.StandardCatalog(seed, hours)
		envs[si] = make([]*runner.StandardEnv, len(scs))
		for ci, sc := range scs {
			env, err := runner.NewStandardEnvWithCatalog(sc, seed, hours, cat)
			if err != nil {
				return nil, err
			}
			env.SubSteps = g.SubSteps
			envs[si][ci] = env
		}
	}

	var (
		next   atomic.Int64
		mu     sync.Mutex
		rounds []roundRec
		errs   []string
		wg     sync.WaitGroup
	)
	groups := g.Seeds * len(g.Variants)
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := sim.NewScratch()
			var local []roundRec
			var bad []string
			for {
				gi := int(next.Add(1)) - 1
				if gi >= groups {
					break
				}
				seedIdx, varIdx := gi/len(g.Variants), gi%len(g.Variants)
				variant := g.Variants[varIdx]
				var baseline *sim.Result
				for ci, sc := range scs {
					idx := (ci*g.Seeds+seedIdx)*len(g.Variants) + varIdx
					row := art.Cells[idx]
					n := &nest{tr: tr, op: int64(idx)}
					opt := runner.OptionsFrom(sc, variant.Config)
					cell := n.begin("sweep.cell")
					env := envs[seedIdx][ci]
					chaosRes, recs, err := tracedLeg(n, env.Spiked, env, opt, true, scratch)
					local = append(local, recs...)
					if err == nil && baseline == nil {
						baseline, recs, err = tracedLeg(n, env.Cat, env, opt, false, scratch)
						local = append(local, recs...)
					}
					n.end(cell)
					switch {
					case err != nil:
						bad = append(bad, fmt.Sprintf("traced cell %v: %v", row.CellRef, err))
					case round6(chaosRes.TotalCost) != row.CostUSD || round6(chaosRes.ViolationPct) != row.ViolationPct ||
						round6(baseline.TotalCost) != row.BaselineCostUSD:
						bad = append(bad, fmt.Sprintf("traced cell %v does not reproduce RunStandard: cost %v vs %v, violation %v vs %v",
							row.CellRef, chaosRes.TotalCost, row.CostUSD, chaosRes.ViolationPct, row.ViolationPct))
					}
				}
			}
			mu.Lock()
			rounds = append(rounds, local...)
			errs = append(errs, bad...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.attempted += g.CellCount()
	for _, e := range errs {
		res.problem(e)
		res.failed++
	}
	return rounds, nil
}

// round6 rounds as chaos.Report.Finalize does before a cost or violation
// reaches a sweep artifact.
func round6(x float64) float64 { return math.Round(x*1e6) / 1e6 }

// tracedLeg rebuilds one leg of runner.RunStandard — the chaos leg on the
// spiked catalog, or the fault-free baseline on the truth catalog — with
// timing wrappers around the planner's policy, predictor and risk observer.
func tracedLeg(n *nest, cat *market.Catalog, env *runner.StandardEnv, opt runner.SimOptions,
	chaosLeg bool, scratch *sim.Scratch) (*sim.Result, []roundRec, error) {
	cfg := runner.BasePortfolioConfig()
	cfg.AMinOnDemand = opt.AnchorMin
	cfg.KKT = opt.KKT
	cfg.DisableWarmStart = opt.ColdStart
	cfg.Parallelism = opt.Parallelism
	wp := &timedPredictor{p: predict.NewSplinePredictor(predict.SplineConfig{
		StepHrs: cat.StepHrs, ARLag1: true, CIProb: 0.99,
	}, cfg.Horizon), n: n}
	planner := portfolio.NewPlanner(cfg, cat, wp, portfolio.MeanRevertSource{Cat: cat})
	scfg := sim.Config{
		Seed:            env.Seed,
		TransiencyAware: true,
		Sentinel:        opt.Sentinel,
		HighUtil:        opt.HighUtil,
		WarningSec:      opt.WarningSec,
		SubSteps:        env.SubSteps,
	}
	if chaosLeg {
		scfg.Chaos = env.Injector
		scfg.Journal = metrics.NewJournal(8192)
	}
	if opt.UseRisk {
		est := risk.New(risk.Config{Quantile: opt.RiskQuantile, HalfLifeHrs: opt.RiskHalfLife}, cat)
		planner.RiskOverlay = est
		scfg.Risk = &timedRisk{r: est, n: n}
	}
	pol := &timedPolicy{planner: planner, n: n}
	s := &sim.Simulator{Cfg: scfg, Cat: cat, Workload: env.Workload, Policy: pol, Scratch: scratch}
	sp := n.begin("sim.run")
	r, err := s.Run()
	n.end(sp)
	return r, pol.rounds, err
}

// roundRec is what one planner round reports about itself.
type roundRec struct {
	step, solve time.Duration
	iters       int
	warm        bool
}

// timedPolicy adapts the planner to sim.Policy, as the chaos runner does,
// and times each Planner.Step.
type timedPolicy struct {
	planner *portfolio.Planner
	n       *nest
	rounds  []roundRec
}

func (p *timedPolicy) Name() string { return "spotweb" }

func (p *timedPolicy) Decide(t int, observed float64) ([]int, error) {
	sp := p.n.begin("portfolio.step")
	dec, err := p.planner.Step(t, observed)
	d := p.n.end(sp)
	if err != nil {
		return nil, err
	}
	p.rounds = append(p.rounds, roundRec{step: d, solve: dec.Plan.SolveTime,
		iters: dec.Plan.Iterations, warm: dec.Plan.WarmStarted})
	return dec.Counts, nil
}

// timedPredictor times the predictor calls the planner makes.
type timedPredictor struct {
	p predict.Predictor
	n *nest
}

func (w *timedPredictor) Observe(v float64) {
	sp := w.n.begin("predict.observe")
	w.p.Observe(v)
	w.n.end(sp)
}

func (w *timedPredictor) Predict(h int) []float64 {
	sp := w.n.begin("predict.predict")
	out := w.p.Predict(h)
	w.n.end(sp)
	return out
}

// timedRisk times the simulator's calls into the risk estimator.
type timedRisk struct {
	r sim.RiskObserver
	n *nest
}

func (w *timedRisk) ObserveRevocation(mkt int, injected bool) {
	sp := w.n.begin("risk.observe")
	w.r.ObserveRevocation(mkt, injected)
	w.n.end(sp)
}

func (w *timedRisk) ObserveInterval(t int, exposed []bool, prices []float64) {
	sp := w.n.begin("risk.observe")
	w.r.ObserveInterval(t, exposed, prices)
	w.n.end(sp)
}

// decisionLayers fills the portfolio, solver and predict metrics from
// traced planner rounds.
func decisionLayers(res *legResult, lt map[string]*layerTimes, rounds []roundRec) {
	if len(rounds) == 0 {
		return
	}
	var step, inputs, solve []float64
	var iters, warm int
	for _, r := range rounds {
		step = append(step, float64(r.step))
		inputs = append(inputs, float64(r.step-r.solve))
		solve = append(solve, float64(r.solve))
		iters += r.iters
		if r.warm {
			warm++
		}
	}
	res.layers["portfolio.round_us_p50"] = pct(sorted(step), 50) / 1e3
	res.layers["portfolio.inputs_us_p50"] = pct(sorted(inputs), 50) / 1e3
	res.layers["solver.solve_us_p50"] = pct(sorted(solve), 50) / 1e3
	res.layers["solver.iters_per_solve"] = float64(iters) / float64(len(rounds))
	res.layers["solver.warm_ratio"] = float64(warm) / float64(len(rounds))
	for name, key := range map[string]string{"predict.observe": "predict.observe_us", "predict.predict": "predict.predict_us"} {
		if c := lt[name]; c != nil {
			res.layers[key] = float64(c.total) / 1e3 / float64(c.calls)
		}
	}
}
