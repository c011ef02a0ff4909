// Package solver implements the convex quadratic-programming substrate that
// replaces the paper's CVXPY + SCS stack.
//
// SolveFISTA is the solver every planner path runs: an accelerated
// projected-gradient method for QPs whose feasible set admits a fast exact
// projection. The SpotWeb portfolio program is a product of per-period
// "box ∩ budget-band" sets, whose projection is computed by bisection in
// O(n log 1/ε) per period, which is what makes the optimizer scale to
// hundreds of markets (paper Fig. 7(b)).
//
// SolveADMM is a small dense OSQP-style solver for the general form
// minimize ½xᵀPx + qᵀx subject to l ≤ Ax ≤ u. No planner path runs it: it is
// the independent reference that tests cross-check FISTA against.
package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Status reports how a solve ended.
type Status int

const (
	// StatusSolved means the termination tolerances were met.
	StatusSolved Status = iota
	// StatusMaxIterations means the iteration budget ran out; the returned
	// point is the best iterate and is usually still usable.
	StatusMaxIterations
	// StatusError means the problem was malformed or a factorization failed.
	StatusError
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusSolved:
		return "solved"
	case StatusMaxIterations:
		return "max_iterations"
	default:
		return "error"
	}
}

// Problem is the QP  minimize ½xᵀPx + qᵀx  subject to  l ≤ Ax ≤ u, with
// dense P and A. P must be symmetric positive semidefinite. Equality
// constraints are expressed with l[i] == u[i]; one-sided constraints with
// ±Inf bounds.
type Problem struct {
	P *linalg.Matrix // n×n, symmetric PSD
	Q linalg.Vector  // n
	A *linalg.Matrix // m×n
	L linalg.Vector  // m, may contain -Inf
	U linalg.Vector  // m, may contain +Inf
}

// Validate checks dimensional consistency and bound sanity.
func (p *Problem) Validate() error {
	if p.P == nil {
		return errors.New("solver: nil P")
	}
	if p.A == nil {
		return errors.New("solver: nil A")
	}
	n := len(p.Q)
	if p.P.Rows != n || p.P.Cols != n {
		return fmt.Errorf("solver: P is %dx%d, want %dx%d", p.P.Rows, p.P.Cols, n, n)
	}
	if p.A.Cols != n {
		return fmt.Errorf("solver: A has %d cols, want %d", p.A.Cols, n)
	}
	m := p.M()
	if len(p.L) != m || len(p.U) != m {
		return fmt.Errorf("solver: bounds have lengths %d/%d, want %d", len(p.L), len(p.U), m)
	}
	for i := 0; i < m; i++ {
		if p.L[i] > p.U[i] {
			return fmt.Errorf("solver: infeasible bounds at row %d: l=%v > u=%v", i, p.L[i], p.U[i])
		}
		if math.IsNaN(p.L[i]) || math.IsNaN(p.U[i]) {
			return fmt.Errorf("solver: NaN bound at row %d", i)
		}
	}
	return nil
}

// N returns the number of decision variables.
func (p *Problem) N() int { return len(p.Q) }

// M returns the number of constraint rows.
func (p *Problem) M() int { return p.A.Rows }

// Objective evaluates ½xᵀPx + qᵀx.
func (p *Problem) Objective(x linalg.Vector) float64 {
	return 0.5*p.P.QuadForm(x) + p.Q.Dot(x)
}

// Gradient writes Px + q into dst and returns it.
func (p *Problem) Gradient(x, dst linalg.Vector) linalg.Vector {
	p.P.MulVec(x, dst)
	for i := range dst {
		dst[i] += p.Q[i]
	}
	return dst
}

// PrimalInfeasibility returns max(0, l−Ax, Ax−u)∞ — how far Ax is from the
// constraint band.
func (p *Problem) PrimalInfeasibility(x linalg.Vector) float64 {
	ax := linalg.NewVector(p.M())
	p.A.MulVec(x, ax)
	var worst float64
	for i, v := range ax {
		if d := p.L[i] - v; d > worst {
			worst = d
		}
		if d := v - p.U[i]; d > worst {
			worst = d
		}
	}
	return worst
}

// Result carries a solver's output.
type Result struct {
	Status     Status
	X          linalg.Vector // primal solution
	Y          linalg.Vector // dual solution for Ax (SolveADMM only; nil for FISTA)
	Objective  float64
	Iterations int
	PriRes     float64 // final primal residual (inf-norm)
	DuaRes     float64 // final dual residual (inf-norm)
	// Warm is the FISTA state to seed a subsequent solve of a nearby
	// problem with (see WarmState). Nil for SolveADMM.
	Warm *WarmState
	// WarmStarted reports whether this solve was seeded from a prior
	// WarmState (iterates or Lipschitz cache).
	WarmStarted bool
}
