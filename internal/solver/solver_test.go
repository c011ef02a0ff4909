package solver

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// boxQP builds min ½‖x − c‖² s.t. 0 ≤ x ≤ 1 whose solution is clip(c, 0, 1).
func boxQP(c linalg.Vector) *Problem {
	n := len(c)
	q := c.Clone().Scale(-1)
	lo := linalg.NewVector(n)
	hi := linalg.NewVector(n)
	hi.Fill(1)
	return &Problem{P: linalg.Identity(n), Q: q, A: linalg.Identity(n), L: lo, U: hi}
}

func TestADMMBoxQP(t *testing.T) {
	c := linalg.Vector{-0.5, 0.25, 2.0}
	res := SolveADMM(boxQP(c), ADMMSettings{})
	if res.Status != StatusSolved {
		t.Fatalf("status %v", res.Status)
	}
	want := linalg.Vector{0, 0.25, 1}
	if !vecsEqual(res.X, want, 1e-4) {
		t.Fatalf("x = %v, want %v", res.X, want)
	}
}

func TestADMMEqualityConstraint(t *testing.T) {
	// min ½(x₀²+x₁²) s.t. x₀+x₁ = 1  →  x = (0.5, 0.5), duals y = −0.5.
	a := linalg.NewMatrix(1, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	p := &Problem{
		P: linalg.Identity(2),
		Q: linalg.NewVector(2),
		A: a,
		L: linalg.Vector{1},
		U: linalg.Vector{1},
	}
	res := SolveADMM(p, ADMMSettings{})
	if res.Status != StatusSolved {
		t.Fatalf("status %v", res.Status)
	}
	if !vecsEqual(res.X, linalg.Vector{0.5, 0.5}, 1e-4) {
		t.Fatalf("x = %v", res.X)
	}
	if math.Abs(res.Objective-0.25) > 1e-3 {
		t.Fatalf("obj = %v, want 0.25", res.Objective)
	}
}

func TestADMMOneSidedBounds(t *testing.T) {
	// min ½x² − 3x s.t. x ≤ 1 (lower bound −Inf) → x = 1.
	a := linalg.Identity(1)
	p := &Problem{
		P: linalg.Identity(1),
		Q: linalg.Vector{-3},
		A: a,
		L: linalg.Vector{math.Inf(-1)},
		U: linalg.Vector{1},
	}
	res := SolveADMM(p, ADMMSettings{})
	if res.Status != StatusSolved || math.Abs(res.X[0]-1) > 1e-4 {
		t.Fatalf("res = %+v", res)
	}
}

func TestADMMValidationErrors(t *testing.T) {
	p := &Problem{P: linalg.Identity(2), Q: linalg.NewVector(3), A: linalg.Identity(2),
		L: linalg.NewVector(2), U: linalg.NewVector(2)}
	if p.Validate() == nil {
		t.Fatal("expected dimension error")
	}
	if res := SolveADMM(p, ADMMSettings{}); res.Status != StatusError {
		t.Fatalf("status = %v, want error", res.Status)
	}
	bad := boxQP(linalg.Vector{0})
	bad.L[0], bad.U[0] = 1, 0
	if bad.Validate() == nil {
		t.Fatal("expected crossing-bounds error")
	}
	var nilP Problem
	if nilP.Validate() == nil {
		t.Fatal("expected nil P/A error")
	}
	nan := boxQP(linalg.Vector{0})
	nan.L[0] = math.NaN()
	if nan.Validate() == nil {
		t.Fatal("expected NaN bound error")
	}
}

func TestProblemHelpers(t *testing.T) {
	p := boxQP(linalg.Vector{0.5, 0.5})
	if p.N() != 2 || p.M() != 2 {
		t.Fatalf("N/M = %d/%d", p.N(), p.M())
	}
	x := linalg.Vector{2, 0}
	if inf := p.PrimalInfeasibility(x); math.Abs(inf-1) > 1e-12 {
		t.Fatalf("infeasibility = %v, want 1", inf)
	}
	g := linalg.NewVector(2)
	p.Gradient(x, g)
	if math.Abs(g[0]-1.5) > 1e-12 { // x₀ − c₀ = 2 − 0.5
		t.Fatalf("gradient = %v", g)
	}
}

func TestFISTABoxQP(t *testing.T) {
	c := linalg.Vector{-0.5, 0.25, 2.0}
	n := len(c)
	pp := &ProjectedProblem{
		P: DenseOperator{M: linalg.Identity(n)},
		Q: c.Clone().Scale(-1),
		C: NewBoxBand(linalg.NewVector(n), linalg.Vector{1, 1, 1}, math.Inf(-1), math.Inf(1)),
	}
	res := SolveFISTA(pp, FISTASettings{})
	if res.Status != StatusSolved {
		t.Fatalf("status %v after %d iters", res.Status, res.Iterations)
	}
	if !vecsEqual(res.X, linalg.Vector{0, 0.25, 1}, 1e-6) {
		t.Fatalf("x = %v", res.X)
	}
}

func TestFISTALinearObjectiveOnSimplex(t *testing.T) {
	// min qᵀx over the simplex Σx = 1, x ≥ 0: puts all mass on argmin q.
	q := linalg.Vector{3, 1, 2}
	pp := &ProjectedProblem{
		P: DenseOperator{M: linalg.NewMatrix(3, 3)}, // zero quadratic
		Q: q,
		C: NewBoxBand(linalg.NewVector(3), linalg.Vector{1, 1, 1}, 1, 1),
	}
	res := SolveFISTA(pp, FISTASettings{MaxIter: 20000, LipschitzBound: 1})
	if math.Abs(res.X[1]-1) > 1e-4 || res.X[0] > 1e-4 || res.X[2] > 1e-4 {
		t.Fatalf("x = %v, want e₂", res.X)
	}
}

// portfolioLikeQP builds a random SpotWeb-shaped program: n markets, cost
// vector q > 0, SPD risk P, allocation set {0 ≤ x ≤ cap, 1 ≤ Σx ≤ 1.4}.
func portfolioLikeQP(rng *rand.Rand, n int) (*Problem, *ProjectedProblem) {
	m := linalg.NewMatrix(n+2, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 0.3
	}
	p := m.AtA()
	p.AddDiag(0.1)
	q := linalg.NewVector(n)
	for i := range q {
		q[i] = 0.1 + rng.Float64()
	}
	lo := linalg.NewVector(n)
	cap := linalg.NewVector(n)
	cap.Fill(0.8)

	// General form: rows = identity (box) + one sum row.
	a := linalg.NewMatrix(n+1, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	for j := 0; j < n; j++ {
		a.Set(n, j, 1)
	}
	l := linalg.NewVector(n + 1)
	u := linalg.NewVector(n + 1)
	for i := 0; i < n; i++ {
		l[i], u[i] = 0, 0.8
	}
	l[n], u[n] = 1, 1.4

	gen := &Problem{P: p, Q: q, A: a, L: l, U: u}
	proj := &ProjectedProblem{
		P: DenseOperator{M: p},
		Q: q,
		C: NewBoxBand(lo, cap, 1, 1.4),
	}
	return gen, proj
}

// The two solvers must agree on random portfolio-shaped QPs: same optimal
// value, feasible solutions.
func TestADMMAndFISTAAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 20; iter++ {
		n := 3 + rng.Intn(10)
		gen, proj := portfolioLikeQP(rng, n)
		ra := SolveADMM(gen, ADMMSettings{EpsAbs: 1e-8, EpsRel: 1e-8, MaxIter: 20000})
		rf := SolveFISTA(proj, FISTASettings{MaxIter: 20000, Tol: 1e-10})
		if ra.Status == StatusError {
			t.Fatalf("iter %d: ADMM error", iter)
		}
		objA := gen.Objective(ra.X)
		objF := gen.Objective(rf.X)
		if math.Abs(objA-objF) > 1e-4*(1+math.Abs(objA)) {
			t.Fatalf("iter %d n=%d: objectives differ: ADMM %v vs FISTA %v", iter, n, objA, objF)
		}
		if inf := gen.PrimalInfeasibility(rf.X); inf > 1e-6 {
			t.Fatalf("iter %d: FISTA solution infeasible by %v", iter, inf)
		}
		if inf := gen.PrimalInfeasibility(ra.X); inf > 1e-4 {
			t.Fatalf("iter %d: ADMM solution infeasible by %v", iter, inf)
		}
	}
}

// KKT optimality: at the FISTA solution, the negative gradient must lie in
// the normal cone; equivalently the fixed-point residual of a projected
// gradient step must vanish.
func TestFISTAKKTFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	_, proj := portfolioLikeQP(rng, 8)
	res := SolveFISTA(proj, FISTASettings{MaxIter: 20000, Tol: 1e-11})
	x := res.X
	g := linalg.NewVector(len(x))
	proj.P.Apply(x, g)
	for i := range g {
		g[i] += proj.Q[i]
	}
	step := x.Clone().AddScaled(-0.01, g)
	proj.C.Project(step)
	if d := step.Sub(x).NormInf(); d > 1e-6 {
		t.Fatalf("fixed-point residual %v", d)
	}
}

func TestBlockDiagOperator(t *testing.T) {
	b1 := linalg.Identity(2)
	b1.ScaleInPlace(2)
	b2 := linalg.Identity(3)
	b2.ScaleInPlace(3)
	op := BlockDiagOperator{Blocks: []*linalg.Matrix{b1, b2}}
	if op.Dim() != 5 {
		t.Fatalf("Dim = %d", op.Dim())
	}
	x := linalg.Vector{1, 1, 1, 1, 1}
	dst := linalg.NewVector(5)
	op.Apply(x, dst)
	want := linalg.Vector{2, 2, 3, 3, 3}
	if !vecsEqual(dst, want, 0) {
		t.Fatalf("Apply = %v", dst)
	}
}

func TestEstimateLipschitz(t *testing.T) {
	// Diagonal matrix: λmax known exactly.
	d := linalg.NewMatrix(4, 4)
	for i, v := range []float64{1, 5, 2, 3} {
		d.Set(i, i, v)
	}
	l := EstimateLipschitz(DenseOperator{M: d}, 100)
	if l < 5 || l > 5.2 {
		t.Fatalf("Lipschitz estimate %v, want ≈5 (inflated)", l)
	}
	// Zero operator.
	z := EstimateLipschitz(DenseOperator{M: linalg.NewMatrix(3, 3)}, 10)
	if z <= 0 {
		t.Fatalf("zero-operator estimate %v must be positive", z)
	}
}

func TestStatusString(t *testing.T) {
	if StatusSolved.String() != "solved" ||
		StatusMaxIterations.String() != "max_iterations" ||
		StatusError.String() != "error" {
		t.Fatal("Status strings wrong")
	}
}

// Property: ADMM solution objective ≤ objective of any random feasible point.
func TestADMMOptimalityAgainstFeasiblePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	gen, proj := portfolioLikeQP(rng, 6)
	res := SolveADMM(gen, ADMMSettings{EpsAbs: 1e-8, EpsRel: 1e-8, MaxIter: 20000})
	set := proj.C.(*BoxBand)
	for k := 0; k < 100; k++ {
		w := set.randomFeasiblePoint(rng)
		if gen.Objective(res.X) > gen.Objective(w)+1e-5 {
			t.Fatalf("found feasible point better than ADMM solution: %v < %v",
				gen.Objective(w), gen.Objective(res.X))
		}
	}
}

// Steady-state FISTA iterations must be allocation-free (serial
// configuration; the parallel pool allocates dispatch closures by design).
func TestKKTFISTASteadyStateZeroAlloc(t *testing.T) {
	prev := linalg.ActivePool()
	linalg.SetPool(nil)
	defer linalg.SetPool(prev)
	rng := rand.New(rand.NewSource(47))
	n, h := 6, 4
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	risk := g.AtA()
	risk.AddDiag(0.5)
	blocks := make([]*linalg.Matrix, h)
	bands := make([]*BoxBand, h)
	for tau := 0; tau < h; tau++ {
		blocks[tau] = risk
		lo := linalg.NewVector(n)
		hi := linalg.NewVector(n)
		hi.Fill(0.8)
		bands[tau] = NewBoxBand(lo, hi, 1, 1.5)
	}
	q := linalg.NewVector(n * h)
	for i := range q {
		q[i] = rng.NormFloat64()
	}
	p := &ProjectedProblem{
		P: BlockDiagOperator{Blocks: blocks},
		Q: q,
		C: NewProductSet(bands),
	}
	measure := func(iters int) float64 {
		st := FISTASettings{MaxIter: iters, Tol: 1e-300}
		return testing.AllocsPerRun(3, func() { SolveFISTA(p, st) })
	}
	if d := measure(600) - measure(100); d != 0 {
		t.Errorf("FISTA allocates %.1f objects over 500 extra iterations, want 0", d)
	}
}

// Steady-state iterations of the reference ADMM are allocation-free too
// (serial configuration): the KKT factor, the right-hand side and the
// residual scratch are all built before the loop.
func TestKKTADMMSteadyStateZeroAlloc(t *testing.T) {
	prev := linalg.ActivePool()
	linalg.SetPool(nil)
	defer linalg.SetPool(prev)
	gen, _ := portfolioLikeQP(rand.New(rand.NewSource(46)), 24)
	measure := func(iters int) float64 {
		st := ADMMSettings{MaxIter: iters, EpsAbs: 1e-300, EpsRel: 1e-300}
		return testing.AllocsPerRun(3, func() { SolveADMM(gen, st) })
	}
	if d := measure(600) - measure(100); d != 0 {
		t.Errorf("ADMM allocates %.1f objects over 500 extra iterations, want 0", d)
	}
}
