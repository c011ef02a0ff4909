package main

import (
	"fmt"
	"math"
)

// refSeed is the seed the reference values below were recorded at. At any
// other seed only the structural checks apply.
const refSeed = 1

// refValue is a decision-quality output recorded at refSeed, with the
// relative tolerance a correct program must stay within. The tolerance
// admits last-digit moves from a more exact solver, not a different answer.
type refValue struct {
	value, relTol float64
}

// references maps a leg's input key (see refKey) → metric → value.
var references = map[string]map[string]refValue{
	"sweep-chaos/seed1/32+8seeds": {
		"sim_cost_usd": {19.284053256000043, 0.02},
		"sim_slo_pct":  {88.56666181599992, 0.01},
	},
	"sweep-chaos/seed1/0+8seeds": {
		"sim_cost_usd": {18.915879514999983, 0.02},
		"sim_slo_pct":  {88.20593965499997, 0.01},
	},
	"plan-288/seed1/50rounds/4traces":  {"plan_objective": {1266.9935773588036, 1e-3}},
	"plan-288/seed1/100rounds/1traces": {"plan_objective": {3254.119017180812, 1e-3}},
}

// refKey names a leg's inputs: its workload, seed and size.
func refKey(l leg) string {
	switch l := l.(type) {
	case *sweepLeg:
		drawn, core := l.grids[len(l.grids)-1], 0
		for _, g := range l.grids[:len(l.grids)-1] {
			core += g.Seeds
		}
		return fmt.Sprintf("sweep-chaos/seed%d/%d+%dseeds", drawn.BaseSeed, core, drawn.Seeds)
	case *planLeg:
		return fmt.Sprintf("plan-288/seed%d/%drounds/%dtraces", l.seed, l.rounds, len(l.traces))
	}
	return ""
}

// checkReference compares a leg's decision-quality outputs with the
// recorded references for its inputs, when there are any: at refSeed for
// the measured leg, and on every run for the fixed slices. A test checks
// that every configuration a run uses at refSeed has references.
func checkReference(res *result, l leg, e2e map[string]float64) {
	leg := l.name()
	for name, ref := range references[refKey(l)] {
		got, ok := e2e[name]
		if !ok {
			res.fail(fmt.Sprintf("%s: reference metric %s missing", leg, name))
			continue
		}
		if math.Abs(got-ref.value) > ref.relTol*math.Abs(ref.value) {
			res.fail(fmt.Sprintf("%s: %s = %.9g, reference %.9g (tolerance %g)", leg, name, got, ref.value, ref.relTol))
		}
	}
}
