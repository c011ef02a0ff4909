package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/market"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/trace"
)

const (
	// planTypes instance types with on-demand twins make the 288-market
	// catalog of the paper's Fig 7(b) top point.
	planTypes = 144
	// trainHrs is the predictor's pretraining window (two weeks, hourly).
	trainHrs = 14 * 24
	// minServerFraction is portfolio.NewPlanner's MinServerFraction default.
	minServerFraction = 0.05
	// planCatalogSeed fixes the catalog; the run's seed draws traces. A
	// catalog per seed would make round times swing with the draw of
	// instance types more than a code change does.
	planCatalogSeed = 1
	// planCoreSeed is the first seed of the fixed traces.
	planCoreSeed = 1001
)

// planLeg runs warm receding-horizon loops of portfolio.Planner.Step on a
// 288-market catalog, one loop per Wikipedia-like trace.
type planLeg struct {
	seed   int64
	rounds int // rounds per loop
	cfg    portfolio.Config
	cat    *market.Catalog
	// traceSeeds draw the workloads the loops replay: the fixed core traces,
	// then those drawn from the run's seed. The reported objective is the
	// mean over them.
	traceSeeds []int64
	traces     []*trace.Series
}

func newPlanLeg(seed int64, rounds, core, drawn int) *planLeg {
	l := &planLeg{seed: seed, rounds: rounds, traces: make([]*trace.Series, core+drawn),
		// The daemon's planner configuration at the default horizon.
		cfg: portfolio.Config{ChurnKappa: 1.0}.WithDefaults()}
	for k := 0; k < core; k++ {
		l.traceSeeds = append(l.traceSeeds, planCoreSeed+int64(k))
	}
	for k := 0; k < drawn; k++ {
		l.traceSeeds = append(l.traceSeeds, seed+7919*int64(k))
	}
	return l
}

func (l *planLeg) name() string { return "plan-288" }
func (l *planLeg) close()       { l.cat, l.traces = nil, make([]*trace.Series, len(l.traces)) }

func (l *planLeg) setup() error {
	days := (trainHrs + l.rounds + l.cfg.Horizon + 2 + 23) / 24
	for k := range l.traces {
		wcfg := trace.WikipediaLike(l.traceSeeds[k])
		wcfg.Days = days
		l.traces[k] = wcfg.Generate()
	}
	l.cat = market.CatalogConfig{
		Seed: planCatalogSeed, NumTypes: planTypes, IncludeOnDemand: true,
		Hours: days * 24, SamplesPerHour: 1,
	}.Generate()
	if l.cat.Len() != 2*planTypes {
		return fmt.Errorf("catalog has %d markets, want %d", l.cat.Len(), 2*planTypes)
	}
	return nil
}

// planner returns a fresh planner whose spline predictor is pretrained on
// the first two weeks of wl. wrap, when set, wraps the predictor.
func (l *planLeg) planner(wl *trace.Series, wrap func(predict.Predictor) predict.Predictor) *portfolio.Planner {
	var wp predict.Predictor = predict.NewSplinePredictor(predict.SplineConfig{
		StepHrs: 1, ARLag1: true, CIProb: 0.99,
	}, l.cfg.Horizon)
	predict.Pretrain(wp, wl, trainHrs)
	if wrap != nil {
		wp = wrap(wp)
	}
	return portfolio.NewPlanner(l.cfg, l.cat, wp, portfolio.MeanRevertSource{Cat: l.cat})
}

// run makes one loop per trace, then repeats loops while the budget lasts;
// a repeated loop must reproduce its trace's objective exactly. A traced
// run makes one loop, on the first trace.
func (l *planLeg) run(budget time.Duration, traced bool) (*legResult, error) {
	res := newLegResult()
	var tr *tracer
	var n *nest
	var wrap func(predict.Predictor) predict.Predictor
	loops := len(l.traces)
	if traced {
		tr = newTracer()
		n = &nest{tr: tr}
		wrap = func(p predict.Predictor) predict.Predictor { return &timedPredictor{p: p, n: n} }
		loops = 1
	}
	var roundMS []float64
	var recs []roundRec
	short := 0
	sums := make([]float64, len(l.traces))
	start := time.Now()
	var last time.Duration
	for k := 0; k < loops || (!traced && time.Since(start)+last <= budget); k++ {
		wl := l.traces[k%len(l.traces)]
		pl := l.planner(wl, wrap)
		beginRep()
		var sum float64
		t0 := time.Now()
		for r := 0; r < l.rounds; r++ {
			t := trainHrs + r
			res.attempted++
			var sp int32
			if n != nil {
				n.op = int64(r)
				sp = n.begin("portfolio.step")
			}
			rs := time.Now()
			dec, err := pl.Step(t, wl.At(t))
			d := time.Since(rs)
			if n != nil {
				n.end(sp)
			}
			if err != nil {
				res.failed++
				res.problem(fmt.Sprintf("Planner.Step(t=%d): %v", t, err))
				continue
			}
			roundMS = append(roundMS, float64(d)/1e6)
			recs = append(recs, roundRec{step: d, solve: dec.Plan.SolveTime,
				iters: dec.Plan.Iterations, warm: dec.Plan.WarmStarted})
			sum += dec.Plan.Objective
			if l.checkDecision(res, t, dec) {
				short++
			}
		}
		last = time.Since(t0)
		endRep(res)
		logf("plan loop %d: %d rounds in %.2fs", k+1, l.rounds, last.Seconds())
		res.opWall = append(res.opWall, float64(last)/float64(l.rounds))
		switch i := k % len(l.traces); {
		case k < len(l.traces):
			sums[i] = sum
		case sum != sums[i]:
			res.problem(fmt.Sprintf("plan objective of trace %d differs between loops: %v vs %v", i, sum, sums[i]))
		}
	}
	if len(roundMS) == 0 {
		return res, fmt.Errorf("no planner round succeeded")
	}
	if traced {
		res.spans = tr.spans
		decisionLayers(res, selfTimes(tr.spans), recs)
		res.layers["portfolio.short_rounds"] = float64(short)
		return res, nil
	}
	s := sorted(roundMS)
	res.e2e["round_ms_p50"] = pct(s, 50)
	// The tail of one contiguous loop varies too much from run to run on a
	// shared host to be gated; it is reported with the per-layer metrics.
	res.layers["round_ms_p90"] = tailValue("round_ms_p90", s, 90)
	res.e2e["plan_objective"] = mean(sums)
	return res, nil
}

// checkDecision applies the per-round output checks and reports whether
// the round's capacity fell short of the predicted load.
//
// Capacity ≥ PredictedLambda does not hold in every round: the planner drops
// allocations below MinServerFraction of one server before rounding, and
// does not cover them elsewhere. The check is therefore exact about that
// rounding rule instead: the counts cover every kept allocation, and any
// shortfall against the predicted load is no larger than the dropped
// allocations. Short rounds are counted, not hidden.
func (l *planLeg) checkDecision(res *legResult, t int, dec *portfolio.Decision) (short bool) {
	if len(dec.Counts) != l.cat.Len() {
		res.problem(fmt.Sprintf("round t=%d: %d counts for %d markets", t, len(dec.Counts), l.cat.Len()))
		return false
	}
	for i, c := range dec.Counts {
		if c < 0 {
			res.problem(fmt.Sprintf("round t=%d: negative count %d in market %d", t, c, i))
			return false
		}
	}
	if math.IsNaN(dec.Plan.Objective) || math.IsInf(dec.Plan.Objective, 0) {
		res.problem(fmt.Sprintf("round t=%d: non-finite objective", t))
	}
	lambda := dec.PredictedLambda
	var kept, dropped float64
	for i, a := range dec.Plan.First() {
		if a <= 0 {
			continue
		}
		if a*lambda/l.cat.Markets[i].Type.Capacity < minServerFraction {
			dropped += a * lambda
		} else {
			kept += a * lambda
		}
	}
	tol := 1e-6 * lambda
	if dec.Capacity < kept-tol {
		res.problem(fmt.Sprintf("round t=%d: capacity %.3f below the kept allocation %.3f", t, dec.Capacity, kept))
	}
	if dec.Capacity+dropped < lambda-tol {
		res.problem(fmt.Sprintf("round t=%d: capacity %.3f plus dropped %.3f below predicted load %.3f",
			t, dec.Capacity, dropped, lambda))
	}
	return dec.Capacity < lambda
}
