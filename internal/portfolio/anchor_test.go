package portfolio

import (
	"math/rand"
	"reflect"
	"testing"
)

// markOnDemand marks the last k of n markets as on-demand.
func markOnDemand(n, k int) []bool {
	od := make([]bool, n)
	for i := n - k; i < n; i++ {
		od[i] = true
	}
	return od
}

// The anchor bound at zero must be a true no-op: marking on-demand markets
// with AMinOnDemand = 0 has to reproduce the anchor-free program bit for bit
// (not within tolerance — identical floats). This is the guarantee that lets the planner always populate Inputs.OnDemand without
// perturbing historical results.
func TestAnchorZeroBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, h int
	}{
		{"fista", 10, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(31 + tc.n)))
			in := randomInputs(rng, tc.n, tc.h)
			cfg := mpoCfg(tc.h)

			plain, err := Optimize(cfg, in)
			if err != nil {
				t.Fatal(err)
			}
			in.OnDemand = markOnDemand(tc.n, 2)
			cfg.AMinOnDemand = 0
			anchored, err := Optimize(cfg, in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain.Alloc, anchored.Alloc) {
				t.Fatal("AMinOnDemand=0 with OnDemand marked must be bit-identical to the anchor-free solve")
			}
			if plain.Objective != anchored.Objective || plain.Iterations != anchored.Iterations {
				t.Fatalf("objective/iterations diverged: (%v, %d) vs (%v, %d)",
					plain.Objective, plain.Iterations, anchored.Objective, anchored.Iterations)
			}
		})
	}
}

// A positive anchor bound must hold on every period of the plan, and FISTA
// must agree with the dense reference solver on the anchored solution.
func TestAnchorBoundHolds(t *testing.T) {
	const n, h, bound = 10, 4, 0.4
	rng := rand.New(rand.NewSource(77))
	in := randomInputs(rng, n, h)
	in.OnDemand = markOnDemand(n, 3)

	odShare := func(alloc []float64) float64 {
		var s float64
		for i, od := range in.OnDemand {
			if od {
				s += alloc[i]
			}
		}
		return s
	}

	cfg := mpoCfg(h)
	cfg.AMinOnDemand = bound
	plans := map[string]*Plan{}
	for name, solve := range map[string]func(Config, *Inputs) (*Plan, error){
		"fista":     Optimize,
		"reference": optimizeReference,
	} {
		p, err := solve(cfg, in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for τ := 0; τ < h; τ++ {
			if s := odShare(p.Alloc[τ]); s < bound-1e-3 {
				t.Fatalf("%s: period %d on-demand share %v below anchor floor %v", name, τ, s, bound)
			}
		}
		plans[name] = p
	}
	// FISTA and the reference agree on the anchored program.
	ref := plans["fista"]
	for name, p := range plans {
		for τ := 0; τ < h; τ++ {
			for i := range p.Alloc[τ] {
				if d := p.Alloc[τ][i] - ref.Alloc[τ][i]; d > 2e-3 || d < -2e-3 {
					t.Fatalf("%s vs fista: τ=%d market %d differ by %v", name, τ, i, d)
				}
			}
		}
	}
}

// The anchor floor must actually bind somewhere: with cheap spot and pricey
// on-demand the unconstrained optimum holds less on-demand than the floor, so
// the anchored plan's OD share must exceed the unconstrained plan's.
func TestAnchorBoundBinds(t *testing.T) {
	const n, h, bound = 10, 4, 0.5
	rng := rand.New(rand.NewSource(5))
	in := randomInputs(rng, n, h)
	in.OnDemand = markOnDemand(n, 3)
	// Make the anchor markets expensive and safe — the classic on-demand
	// profile the optimizer avoids until forced.
	for τ := 0; τ < h; τ++ {
		for i, od := range in.OnDemand {
			if od {
				in.PerReqCost[τ][i] *= 5
				in.FailProb[τ][i] = 0
			}
		}
	}
	odShare := func(alloc []float64) float64 {
		var s float64
		for i, od := range in.OnDemand {
			if od {
				s += alloc[i]
			}
		}
		return s
	}
	cfg := mpoCfg(h)
	free, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AMinOnDemand = bound
	anchored, err := Optimize(cfg, in)
	if err != nil {
		t.Fatal(err)
	}
	for τ := 0; τ < h; τ++ {
		if odShare(free.Alloc[τ]) >= bound {
			t.Fatalf("period %d: unconstrained OD share %v already ≥ %v — test setup not binding",
				τ, odShare(free.Alloc[τ]), bound)
		}
		if s := odShare(anchored.Alloc[τ]); s < bound-1e-3 {
			t.Fatalf("period %d: anchored OD share %v below floor %v", τ, s, bound)
		}
	}
}

func TestAnchorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomInputs(rng, 6, 3)
	cfg := mpoCfg(3)
	cfg.AMinOnDemand = 0.3

	// No on-demand markets marked.
	if _, err := Optimize(cfg, in); err == nil {
		t.Fatal("AMinOnDemand without OnDemand markets must fail")
	}
	// Floor above what the per-market caps allow.
	in.OnDemand = markOnDemand(6, 1)
	cfg.AMaxPerMarket = 0.2
	cfg.AMinOnDemand = 0.3
	if _, err := Optimize(cfg, in); err == nil {
		t.Fatal("anchor floor above nOD·AMaxPerMarket must fail")
	}
	// Floor above the total allocation ceiling.
	cfg = mpoCfg(3)
	cfg.AMinOnDemand = cfg.AMax + 1
	in.OnDemand = markOnDemand(6, 6)
	if _, err := Optimize(cfg, in); err == nil {
		t.Fatal("anchor floor above AMax must fail")
	}
	// Mismatched OnDemand length.
	cfg = mpoCfg(3)
	cfg.AMinOnDemand = 0.3
	in.OnDemand = []bool{true}
	if _, err := Optimize(cfg, in); err == nil {
		t.Fatal("OnDemand length mismatch must fail")
	}
}
