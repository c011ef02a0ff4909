package solver

import (
	"math"
	"testing"

	"repro/internal/linalg"
)

// fuzzBytes hands out fuzz input bytes in order, then zeros once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// unit maps the next byte onto [0, 1].
func (b *fuzzBytes) unit() float64 { return float64(b.next()) / 255 }

// FuzzFISTAMatchesReference builds small box∩band QPs from the fuzz bytes —
// up to 12 variables, a random PSD Hessian with a ridge, random box bounds,
// a budget band inside the box's reach and an optional anchor floor — and
// checks FISTA against the dense reference SolveADMM with the
// TestADMMAndFISTAAgree tolerances: the same optimal objective, and a FISTA
// solution that satisfies every constraint.
func FuzzFISTAMatchesReference(f *testing.F) {
	f.Add([]byte{5, 40, 200, 17, 90, 250, 3, 128, 77, 60, 0, 1, 2, 3})
	f.Add([]byte{11, 255, 0, 255, 0, 128, 128, 64, 32, 16, 8, 4, 2, 1, 1, 9, 99, 199, 33, 1, 0, 3, 6, 0, 200})
	f.Add([]byte{2, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 0, 0, 1, 0, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		n := 1 + int(r.next()%12)

		// P = GᵀG/(n+1) + ridge·I: PSD with a condition number of at most a
		// few hundred, so both solvers converge well inside their budgets.
		g := linalg.NewMatrix(n+1, n)
		for i := range g.Data {
			g.Data[i] = 2*r.unit() - 1
		}
		p := g.AtA()
		p.ScaleInPlace(1 / float64(n+1))
		p.AddDiag(0.05 + 0.5*r.unit())
		q := linalg.NewVector(n)
		for i := range q {
			q[i] = 4*r.unit() - 2
		}

		lo, hi := linalg.NewVector(n), linalg.NewVector(n)
		var boxLo, boxHi float64
		for i := range lo {
			lo[i] = 0.5 * r.unit()
			hi[i] = lo[i] + 0.05 + r.unit()
			boxLo += lo[i]
			boxHi += hi[i]
		}
		sumLo := boxLo + r.unit()*(boxHi-boxLo)
		sumHi := sumLo + r.unit()*(boxHi-sumLo)
		set := NewBoxBand(lo, hi, sumLo, sumHi)

		// Optional anchor floor on a non-empty subset, set below the most
		// the subset can hold given the box and the band.
		var anchor []int
		var floor float64
		if n > 1 && r.next()%2 == 1 {
			var anchorLo, anchorHi, otherLo float64
			for i := 0; i < n; i++ {
				if r.next()%3 == 0 {
					anchor = append(anchor, i)
					anchorLo += lo[i]
					anchorHi += hi[i]
				} else {
					otherLo += lo[i]
				}
			}
			if len(anchor) == 0 {
				anchor = []int{0}
				anchorLo, anchorHi, otherLo = lo[0], hi[0], otherLo-lo[0]
			}
			reach := math.Min(anchorHi, sumHi-otherLo)
			floor = anchorLo + 0.99*r.unit()*(reach-anchorLo)
			set.WithAnchor(anchor, floor)
		}
		if !set.Feasible() {
			t.Skip() // floating-point round-off at the edge of the band
		}

		// The same program in general form: box rows, the band row and the
		// anchor row when the floor is active.
		m := n + 1
		if floor > 0 {
			m++
		}
		a := linalg.NewMatrix(m, n)
		l, u := linalg.NewVector(m), linalg.NewVector(m)
		for i := 0; i < n; i++ {
			a.Set(i, i, 1)
			l[i], u[i] = lo[i], hi[i]
			a.Set(n, i, 1)
		}
		l[n], u[n] = sumLo, sumHi
		if floor > 0 {
			for _, i := range anchor {
				a.Set(n+1, i, 1)
			}
			l[n+1], u[n+1] = floor, math.Inf(1)
		}
		gen := &Problem{P: p, Q: q, A: a, L: l, U: u}
		proj := &ProjectedProblem{P: DenseOperator{M: p}, Q: q, C: set}

		rf := SolveFISTA(proj, FISTASettings{MaxIter: 20000, Tol: 1e-10})
		if inf := gen.PrimalInfeasibility(rf.X); inf > 1e-6 {
			t.Fatalf("n=%d: FISTA solution infeasible by %v", n, inf)
		}
		// With fixed ρ the reference can stall on degenerate instances (a
		// band pinned against the box edge); its objective is only an
		// oracle once its own residuals have converged.
		ra := SolveADMM(gen, ADMMSettings{EpsAbs: 1e-8, EpsRel: 1e-8, MaxIter: 20000})
		if ra.Status != StatusSolved {
			t.Skip("reference did not converge")
		}
		objA, objF := gen.Objective(ra.X), gen.Objective(rf.X)
		if math.Abs(objA-objF) > 1e-4*(1+math.Abs(objA)) {
			t.Fatalf("n=%d anchor=%v floor=%v: objectives differ: reference %v vs FISTA %v",
				n, anchor, floor, objA, objF)
		}
	})
}

// FuzzBoxBandProject checks the projection invariants (feasibility and
// idempotence) on arbitrary inputs.
func FuzzBoxBandProject(f *testing.F) {
	f.Add(0.5, 1.5, 0.8, -2.0, 3.0, 0.2)
	f.Add(0.0, 1.0, 1.0, 0.0, 0.0, 0.0)
	f.Add(1.0, 1.0, 0.3, 9.0, -9.0, 4.0)
	f.Fuzz(func(t *testing.T, sumLo, sumHi, cap, x0, x1, x2 float64) {
		for _, v := range []float64{sumLo, sumHi, cap, x0, x1, x2} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				t.Skip()
			}
		}
		if cap <= 0 {
			t.Skip()
		}
		if sumHi < sumLo {
			sumLo, sumHi = sumHi, sumLo
		}
		lo := linalg.NewVector(3)
		hi := linalg.Vector{cap, cap, cap}
		set := NewBoxBand(lo, hi, sumLo, sumHi)
		if !set.Feasible() {
			t.Skip()
		}
		x := linalg.Vector{x0, x1, x2}
		set.Project(x)
		var sum float64
		for i, v := range x {
			if v < lo[i]-1e-6 || v > hi[i]+1e-6 {
				t.Fatalf("projection outside box: %v", x)
			}
			sum += v
		}
		if sum < sumLo-1e-5 || sum > sumHi+1e-5 {
			t.Fatalf("projection outside band: sum %v not in [%v,%v]", sum, sumLo, sumHi)
		}
		y := x.Clone()
		set.Project(y)
		for i := range x {
			if math.Abs(x[i]-y[i]) > 1e-6 {
				t.Fatalf("projection not idempotent")
			}
		}
	})
}
