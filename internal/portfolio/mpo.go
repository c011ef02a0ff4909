package portfolio

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/solver"
)

// Plan is the optimizer output: one allocation vector per horizon step. Only
// the first step is executed by the receding-horizon controller.
type Plan struct {
	// Alloc[τ][i] is the fraction of step-τ predicted load on market i.
	Alloc []linalg.Vector
	// Objective is the optimal cost (lower is better; $-denominated terms
	// plus the risk regularizer).
	Objective float64
	// SolveTime is the wall-clock optimizer latency (the Fig. 7(b) metric).
	SolveTime  time.Duration
	Iterations int
	Status     solver.Status
	// PriRes is the solver's final primal residual (inf-norm) — the
	// convergence quality the monitoring subsystem exposes per solve.
	PriRes float64
	// WarmStarted reports whether the solve was seeded from a previous
	// round's warm state (iterates or Lipschitz cache).
	WarmStarted bool
	// warm is the solver state that can seed the next receding-horizon
	// round (Planner shifts it one period before reuse).
	warm *solver.WarmState
}

// First returns the first-interval allocation (the executed trade).
func (p *Plan) First() linalg.Vector { return p.Alloc[0] }

// horizonOperator is the Hessian of the MPO objective as a matrix-free
// operator: block-diagonal risk (2αM per period) plus the tridiagonal churn
// coupling 2κ(‖A_τ − A_{τ−1}‖² terms). Construct with newHorizonOperator.
type horizonOperator struct {
	m     RiskApplier // risk matrix M (dense, sparse or factor model)
	alpha float64
	kappa float64
	n, h  int
	pool  *parallel.Pool // per-period blocks run concurrently; nil = serial

	// Operands of the in-flight Apply. The chunk bodies below read them
	// through the receiver so the closures can be built once at construction
	// instead of once per Apply — Apply runs every solver iteration and must
	// not allocate in steady state.
	x, dst    linalg.Vector
	riskBody  func(plo, phi int)
	churnBody func(plo, phi int)
}

// newHorizonOperator builds the operator with its chunk bodies pre-bound.
func newHorizonOperator(m RiskApplier, alpha, kappa float64, n, h int, pool *parallel.Pool) *horizonOperator {
	o := &horizonOperator{m: m, alpha: alpha, kappa: kappa, n: n, h: h, pool: pool}
	o.riskBody = func(plo, phi int) {
		for τ := plo; τ < phi; τ++ {
			xb := o.x[τ*n : (τ+1)*n]
			db := o.dst[τ*n : (τ+1)*n]
			o.m.MulVec(xb, db)
			linalg.Vector(db).Scale(2 * o.alpha)
		}
	}
	o.churnBody = func(plo, phi int) {
		k2 := 2 * o.kappa
		for τ := plo; τ < phi; τ++ {
			xb := o.x[τ*n : (τ+1)*n]
			db := o.dst[τ*n : (τ+1)*n]
			// Each A_τ appears in the (τ) difference and, if τ+1 < h, in the
			// (τ+1) difference.
			diagCount := 1.0
			if τ+1 < h {
				diagCount = 2.0
			}
			for i := 0; i < n; i++ {
				db[i] += k2 * diagCount * xb[i]
			}
			if τ > 0 {
				prev := o.x[(τ-1)*n : τ*n]
				for i := 0; i < n; i++ {
					db[i] -= k2 * prev[i]
				}
			}
			if τ+1 < h {
				next := o.x[(τ+1)*n : (τ+2)*n]
				for i := 0; i < n; i++ {
					db[i] -= k2 * next[i]
				}
			}
		}
	}
	return o
}

// Apply implements solver.QuadOperator. Each period writes only its own
// dst block (the churn coupling reads neighbouring x blocks but never
// neighbouring dst), so periods parallelize without changing any element's
// accumulation order.
func (o *horizonOperator) Apply(x, dst linalg.Vector) {
	o.x, o.dst = x, dst
	ws := o.pool
	if ws == nil {
		ws = parallel.Serial
	}
	ws.For(o.h, 1, o.riskBody)
	if o.kappa != 0 {
		ws.For(o.h, 1, o.churnBody)
	}
}

// Dim implements solver.QuadOperator.
func (o *horizonOperator) Dim() int { return o.n * o.h }

// churnWeight converts the dimensionless ChurnKappa into dollar units by
// scaling with the mean per-interval spend λ·C̄ over the horizon, so the
// churn term competes with the provisioning cost on equal footing.
func (c Config) churnWeight(in *Inputs, n int) float64 {
	if c.ChurnKappa <= 0 {
		return 0
	}
	var spend float64
	for τ := 0; τ < c.Horizon; τ++ {
		var meanC float64
		for i := 0; i < n; i++ {
			meanC += in.PerReqCost[τ][i]
		}
		meanC /= float64(n)
		spend += in.Lambda[τ] * meanC
	}
	spend /= float64(c.Horizon)
	if spend <= 0 {
		return 0
	}
	return c.ChurnKappa * spend
}

// buildLinear assembles the stacked linear cost vector, including the churn
// cross-term with the fixed previous allocation (−2κ·prev on the first
// block).
func (c Config) buildLinear(in *Inputs, n int, kappa float64) linalg.Vector {
	h := c.Horizon
	q := linalg.NewVector(n * h)
	for τ := 0; τ < h; τ++ {
		for i := 0; i < n; i++ {
			q[τ*n+i] = c.linearCost(in, τ, i)
		}
	}
	if kappa > 0 && in.PrevAlloc != nil {
		for i := 0; i < n; i++ {
			q[i] -= 2 * kappa * in.PrevAlloc[i]
		}
	}
	return q
}

// feasibleSet builds the horizon-stacked projection set (constraints 7–10),
// plus the per-period anchor floor Σ_OD A ≥ AMinOnDemand when configured.
func (c Config) feasibleSet(n int, anchorIdx []int) *solver.ProductSet {
	blocks := make([]*solver.BoxBand, c.Horizon)
	for τ := 0; τ < c.Horizon; τ++ {
		lo := linalg.NewVector(n)
		hi := linalg.NewVector(n)
		hi.Fill(c.AMaxPerMarket)
		blocks[τ] = solver.NewBoxBand(lo, hi, c.AMin, c.AMax)
		if c.AMinOnDemand > 0 {
			blocks[τ].WithAnchor(anchorIdx, c.AMinOnDemand)
		}
	}
	return solver.NewProductSet(blocks)
}

// Optimize solves the MPO program and returns the plan (cold start).
func Optimize(cfg Config, in *Inputs) (*Plan, error) {
	return OptimizeWarm(cfg, in, nil)
}

// OptimizeWarm solves the MPO program, optionally seeding the solver from a
// previous round's warm state (see solver.WarmState). The state is consumed;
// the state for the *next* round rides back on the returned Plan. A nil warm
// state is a cold start — OptimizeWarm(cfg, in, nil) ≡ Optimize(cfg, in).
func OptimizeWarm(cfg Config, in *Inputs, warm *solver.WarmState) (*Plan, error) {
	c := cfg.WithDefaults()
	n, err := in.Validate(c.Horizon)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("portfolio: no markets")
	}
	if c.AMin > float64(n)*c.AMaxPerMarket {
		return nil, fmt.Errorf("portfolio: AMin %v unreachable with %d markets capped at %v",
			c.AMin, n, c.AMaxPerMarket)
	}
	if c.AMinOnDemand > 0 {
		nOD := len(in.anchorIdx())
		if nOD == 0 {
			return nil, fmt.Errorf("portfolio: AMinOnDemand %v set but no on-demand markets marked", c.AMinOnDemand)
		}
		if c.AMinOnDemand > float64(nOD)*c.AMaxPerMarket {
			return nil, fmt.Errorf("portfolio: AMinOnDemand %v unreachable with %d on-demand markets capped at %v",
				c.AMinOnDemand, nOD, c.AMaxPerMarket)
		}
		if c.AMinOnDemand > c.AMax {
			return nil, fmt.Errorf("portfolio: AMinOnDemand %v exceeds AMax %v", c.AMinOnDemand, c.AMax)
		}
	}
	start := time.Now()
	res := c.solveFISTA(in, n, warm)
	if res.Status == solver.StatusError {
		return nil, fmt.Errorf("portfolio: solver failed")
	}
	plan := &Plan{
		Objective:   res.Objective,
		SolveTime:   time.Since(start),
		Iterations:  res.Iterations,
		Status:      res.Status,
		PriRes:      res.PriRes,
		WarmStarted: res.WarmStarted,
		warm:        res.Warm,
	}
	for τ := 0; τ < c.Horizon; τ++ {
		alloc := linalg.Vector(res.X[τ*n : (τ+1)*n]).Clone()
		// Numerical cleanup: clip tiny negatives from solver tolerance.
		for i := range alloc {
			if alloc[i] < 0 {
				alloc[i] = 0
			}
		}
		plan.Alloc = append(plan.Alloc, alloc)
	}
	return plan, nil
}

func (c Config) solveFISTA(in *Inputs, n int, warm *solver.WarmState) solver.Result {
	kappa := c.churnWeight(in, n)
	risk := RiskApplier(in.Risk)
	if in.RiskOp != nil {
		risk = in.RiskOp
	}
	ws := parallel.PoolFor(c.Parallelism)
	var anchorIdx []int
	if c.AMinOnDemand > 0 {
		anchorIdx = in.anchorIdx()
	}
	pp := &solver.ProjectedProblem{
		P: newHorizonOperator(risk, c.Alpha, kappa, n, c.Horizon, ws),
		Q: c.buildLinear(in, n, kappa),
		C: c.feasibleSet(n, anchorIdx),
	}
	maxIter := c.MaxIter
	if maxIter <= 0 {
		maxIter = 4000
	}
	return solver.SolveFISTA(pp, solver.FISTASettings{
		MaxIter: maxIter, Tol: 1e-7, Workers: ws, Warm: warm,
	})
}

// ServerCounts converts a fractional allocation into integer server counts
// (§4.2's A_t^i = n_t^i r_i / λ_t inverted). Naively ceiling every market
// wastes most of a large instance per thin allocation, so integerization is
// largest-remainder: floor each market's fractional server need, then add
// whole servers — largest remainder first, smallest instance on ties — until
// the realized capacity covers the allocated demand λ·ΣA. Allocations so
// small they would claim only a sliver of one server (< minFraction) are
// dropped to avoid churning tiny instances.
func ServerCounts(alloc linalg.Vector, lambda float64, capacities []float64, minFraction float64) []int {
	out := make([]int, len(alloc))
	if lambda <= 0 {
		return out
	}
	type rem struct {
		i    int
		frac float64
	}
	var rems []rem
	var target, have float64
	for i, a := range alloc {
		if a <= 0 {
			continue
		}
		want := a * lambda / capacities[i]
		if want < minFraction {
			continue
		}
		n := int(math.Floor(want + 1e-9))
		out[i] = n
		have += float64(n) * capacities[i]
		target += a * lambda
		rems = append(rems, rem{i: i, frac: want - float64(n)})
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].frac != rems[b].frac {
			return rems[a].frac > rems[b].frac
		}
		if capacities[rems[a].i] != capacities[rems[b].i] {
			return capacities[rems[a].i] < capacities[rems[b].i]
		}
		return rems[a].i < rems[b].i
	})
	for _, r := range rems {
		if have >= target-1e-9 {
			return out
		}
		out[r.i]++
		have += capacities[r.i]
	}
	// Remainders exhausted but capacity still short (slivers were dropped):
	// top up with the smallest participating instance.
	if have < target-1e-9 && len(rems) > 0 {
		small := rems[0].i
		for _, r := range rems {
			if capacities[r.i] < capacities[small] {
				small = r.i
			}
		}
		for have < target-1e-9 {
			out[small]++
			have += capacities[small]
		}
	}
	return out
}

// CapacityOf returns the total req/s capacity of integer server counts.
func CapacityOf(counts []int, capacities []float64) float64 {
	var s float64
	for i, n := range counts {
		s += float64(n) * capacities[i]
	}
	return s
}
