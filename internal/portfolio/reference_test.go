package portfolio

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/linalg"
	"repro/internal/solver"
)

// randomInputs builds a random but well-conditioned MPO input set of n markets
// over horizon h: SPD risk, per-period costs/failure probabilities with mild
// drift, and a previous allocation so the churn term is fully exercised.
func randomInputs(rng *rand.Rand, n, h int) *Inputs {
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	risk := g.AtA()
	risk.ScaleInPlace(0.01 / float64(n))
	risk.AddDiag(0.005)
	in := &Inputs{Risk: risk}
	base := make([]float64, n)
	fail := make([]float64, n)
	for i := range base {
		base[i] = 0.002 + 0.008*rng.Float64()
		fail[i] = 0.1 * rng.Float64()
	}
	for τ := 0; τ < h; τ++ {
		costs := make([]float64, n)
		fails := make([]float64, n)
		for i := range costs {
			costs[i] = base[i] * (1 + 0.05*math.Sin(float64(τ+i)))
			fails[i] = fail[i]
		}
		in.Lambda = append(in.Lambda, 100+5*float64(τ))
		in.PerReqCost = append(in.PerReqCost, costs)
		in.FailProb = append(in.FailProb, fails)
	}
	prev := linalg.NewVector(n)
	for i := range prev {
		prev[i] = rng.Float64() * 1.2 / float64(n)
	}
	in.PrevAlloc = prev
	return in
}

func mpoCfg(h int) Config {
	return Config{
		Horizon: h, ChurnKappa: 0.5,
		Alpha: 5, AMin: 1, AMax: 1.5, AMaxPerMarket: 1,
	}
}

// buildADMMDense assembles the MPO program in general form with dense P and
// A: the horizon-stacked Hessian (block-diagonal 2αM plus the tridiagonal
// churn coupling), box rows, one budget-band row per period and, when the
// anchor floor is active, one anchor row per period.
func (c Config) buildADMMDense(in *Inputs, n int, kappa float64) *solver.Problem {
	h := c.Horizon
	dim := n * h
	p := linalg.NewMatrix(dim, dim)
	for τ := 0; τ < h; τ++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				p.Set(τ*n+i, τ*n+j, 2*c.Alpha*in.Risk.At(i, j))
			}
		}
	}
	if kappa > 0 {
		k2 := 2 * kappa
		for τ := 0; τ < h; τ++ {
			diagCount := 1.0
			if τ+1 < h {
				diagCount = 2.0
			}
			for i := 0; i < n; i++ {
				p.Add(τ*n+i, τ*n+i, k2*diagCount)
				if τ > 0 {
					p.Set(τ*n+i, (τ-1)*n+i, -k2)
					p.Set((τ-1)*n+i, τ*n+i, -k2)
				}
			}
		}
	}
	m := dim + h
	var anchorIdx []int
	if c.AMinOnDemand > 0 {
		anchorIdx = in.anchorIdx()
		m += h
	}
	a := linalg.NewMatrix(m, dim)
	l := linalg.NewVector(m)
	u := linalg.NewVector(m)
	for k := 0; k < dim; k++ {
		a.Set(k, k, 1)
		u[k] = c.AMaxPerMarket
	}
	for τ := 0; τ < h; τ++ {
		row := dim + τ
		for i := 0; i < n; i++ {
			a.Set(row, τ*n+i, 1)
		}
		l[row] = c.AMin
		u[row] = c.AMax
	}
	for τ := 0; τ < h && anchorIdx != nil; τ++ {
		row := dim + h + τ
		for _, i := range anchorIdx {
			a.Set(row, τ*n+i, 1)
		}
		l[row] = c.AMinOnDemand
		u[row] = math.Inf(1)
	}
	return &solver.Problem{P: p, Q: c.buildLinear(in, n, kappa), A: a, L: l, U: u}
}

// optimizeReference solves the MPO program with the dense reference
// solver.SolveADMM instead of FISTA, returning the plan in Optimize's shape.
// It needs the dense Inputs.Risk.
func optimizeReference(cfg Config, in *Inputs) (*Plan, error) {
	c := cfg.WithDefaults()
	n, err := in.Validate(c.Horizon)
	if err != nil {
		return nil, err
	}
	res := solver.SolveADMM(c.buildADMMDense(in, n, c.churnWeight(in, n)),
		solver.ADMMSettings{MaxIter: 8000, EpsAbs: 1e-6, EpsRel: 1e-6})
	if res.Status == solver.StatusError {
		return nil, fmt.Errorf("reference solve failed")
	}
	plan := &Plan{Objective: res.Objective, Iterations: res.Iterations, Status: res.Status, PriRes: res.PriRes}
	for τ := 0; τ < c.Horizon; τ++ {
		alloc := linalg.Vector(res.X[τ*n : (τ+1)*n]).Clone()
		for i := range alloc {
			if alloc[i] < 0 {
				alloc[i] = 0
			}
		}
		plan.Alloc = append(plan.Alloc, alloc)
	}
	return plan, nil
}
