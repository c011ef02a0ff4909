package portfolio

import (
	"repro/internal/parallel"
)

// Candidate is one what-if branch for the planner to evaluate: a full config
// (risk aversion, horizon, churn weight…) against a full input set.
// Candidates are independent QPs, so a sweep parallelizes across them.
type Candidate struct {
	Name string
	Cfg  Config
	In   *Inputs
}

// CandidateResult pairs a candidate with its solved plan (or error).
type CandidateResult struct {
	Candidate Candidate
	Plan      *Plan
	Err       error
}

// OptimizeCandidates solves every candidate and returns results in input
// order. parallelism bounds the pool exactly like Config.Parallelism (0/1
// serial, n > 1 up to n workers, negative all cores). Candidate solves run
// concurrently across the pool; each individual solve runs serial inside —
// for a sweep, across-candidate parallelism dominates within-solve
// parallelism and avoids oversubscription. Results are identical to a serial
// sweep regardless of parallelism.
func OptimizeCandidates(cands []Candidate, parallelism int) []CandidateResult {
	out := make([]CandidateResult, len(cands))
	pool := parallel.PoolFor(parallelism)
	pool.For(len(cands), 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			c := cands[k]
			c.Cfg.Parallelism = 0 // within-solve serial; see doc comment
			plan, err := Optimize(c.Cfg, c.In)
			out[k] = CandidateResult{Candidate: c, Plan: plan, Err: err}
		}
	})
	return out
}

// SweepAlpha evaluates the same inputs under a range of risk-aversion values
// — the paper's §6 sensitivity axis — returning one result per alpha in
// order. The sweep inherits cfg's Parallelism as its across-candidate bound.
func SweepAlpha(cfg Config, in *Inputs, alphas []float64) []CandidateResult {
	cands := make([]Candidate, len(alphas))
	for k, a := range alphas {
		c := cfg
		c.Alpha = a
		cands[k] = Candidate{Name: "alpha", Cfg: c, In: in}
	}
	return OptimizeCandidates(cands, cfg.Parallelism)
}
