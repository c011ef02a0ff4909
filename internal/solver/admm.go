package solver

import (
	"math"

	"repro/internal/linalg"
)

// ADMMSettings bounds the reference solver. Zero values select defaults.
type ADMMSettings struct {
	MaxIter int     // iteration budget (default 4000)
	EpsAbs  float64 // absolute tolerance (default 1e-6)
	EpsRel  float64 // relative tolerance (default 1e-6)
}

// The splitting parameters are fixed: step size ρ, primal regularization σ
// and over-relaxation α.
const (
	admmRho   = 0.1
	admmSigma = 1e-6
	admmAlpha = 1.6
)

func (s ADMMSettings) withDefaults() ADMMSettings {
	if s.MaxIter <= 0 {
		s.MaxIter = 4000
	}
	if s.EpsAbs <= 0 {
		s.EpsAbs = 1e-6
	}
	if s.EpsRel <= 0 {
		s.EpsRel = 1e-6
	}
	return s
}

// SolveADMM solves the QP with the OSQP splitting
//
//	x-update: solve the quasi-definite KKT system
//	          [P+σI  Aᵀ ] [x̃]   [σx − q     ]
//	          [A    −I/ρ] [ν] = [z − y/ρ    ]
//	z-update: clip onto [l, u]
//	y-update: scaled dual ascent,
//
// with over-relaxation α. The KKT matrix is assembled densely and factored
// once with an LDLᵀ, so the solver costs O((n+m)³) up front and O((n+m)²)
// per iteration: fine for the small programs tests hand it, and independent
// of FISTA's projection machinery, which is what makes it a useful reference.
func SolveADMM(p *Problem, settings ADMMSettings) Result {
	if err := p.Validate(); err != nil {
		return Result{Status: StatusError}
	}
	s := settings.withDefaults()
	n, m := p.N(), p.M()

	kkt := linalg.NewMatrix(n+m, n+m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			kkt.Set(i, j, p.P.At(i, j))
		}
		kkt.Add(i, i, admmSigma)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			aij := p.A.At(i, j)
			kkt.Set(n+i, j, aij)
			kkt.Set(j, n+i, aij)
		}
		kkt.Set(n+i, n+i, -1/admmRho)
	}
	fact, err := linalg.LDL(kkt, 0)
	if err != nil {
		return Result{Status: StatusError}
	}

	x := linalg.NewVector(n)
	z := linalg.NewVector(m)
	y := linalg.NewVector(m)
	rhs := linalg.NewVector(n + m)
	sol := linalg.NewVector(n + m)
	xTilde, nu := sol[:n], sol[n:]
	ax := linalg.NewVector(m)
	aty := linalg.NewVector(n)
	px := linalg.NewVector(n)

	res := Result{Status: StatusMaxIterations}
	for iter := 1; iter <= s.MaxIter; iter++ {
		for i := 0; i < n; i++ {
			rhs[i] = admmSigma*x[i] - p.Q[i]
		}
		for i := 0; i < m; i++ {
			rhs[n+i] = z[i] - y[i]/admmRho
		}
		fact.Solve(rhs, sol)
		for i := 0; i < n; i++ {
			x[i] = admmAlpha*xTilde[i] + (1-admmAlpha)*x[i]
		}
		for i := 0; i < m; i++ {
			zTilde := z[i] + (nu[i]-y[i])/admmRho
			zRelax := admmAlpha*zTilde + (1-admmAlpha)*z[i]
			// z-update: project zRelax + y/ρ onto [l, u].
			v := zRelax + y[i]/admmRho
			if v < p.L[i] {
				v = p.L[i]
			} else if v > p.U[i] {
				v = p.U[i]
			}
			z[i] = v
			// y-update.
			y[i] += admmRho * (zRelax - z[i])
		}

		// Check residuals every few iterations to amortize the matvecs.
		if iter%10 != 0 && iter != s.MaxIter {
			continue
		}
		p.A.MulVec(x, ax)
		p.A.MulVecT(y, aty)
		p.P.MulVec(x, px)
		var priRes, duaRes float64
		for i := 0; i < m; i++ {
			if d := math.Abs(ax[i] - z[i]); d > priRes {
				priRes = d
			}
		}
		for i := 0; i < n; i++ {
			if d := math.Abs(px[i] + p.Q[i] + aty[i]); d > duaRes {
				duaRes = d
			}
		}
		epsPri := s.EpsAbs + s.EpsRel*math.Max(ax.NormInf(), z.NormInf())
		epsDua := s.EpsAbs + s.EpsRel*math.Max(px.NormInf(), math.Max(aty.NormInf(), p.Q.NormInf()))
		res.PriRes, res.DuaRes, res.Iterations = priRes, duaRes, iter
		if priRes <= epsPri && duaRes <= epsDua {
			res.Status = StatusSolved
			break
		}
	}
	res.X = x
	res.Y = y
	res.Objective = p.Objective(x)
	return res
}
