package portfolio

import (
	"math/rand"
	"os"
	"runtime"
	"testing"

	"repro/internal/linalg"
)

// TestMain widens GOMAXPROCS before any test runs so the shared pool
// (parallel.Default, sized once at first use) is genuinely concurrent even on
// single-core CI runners.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

// randMPOInstance draws a random multi-period instance: dense SPD risk,
// per-market costs and failure probabilities, churn coupling, previous
// allocation.
func randMPOInstance(rng *rand.Rand) (Config, *Inputs) {
	n := 4 + rng.Intn(12)
	h := 2 + rng.Intn(6)
	costs := make([]float64, n)
	fails := make([]float64, n)
	for i := 0; i < n; i++ {
		costs[i] = 0.0005 + 0.01*rng.Float64()
		fails[i] = 0.2 * rng.Float64()
	}
	// Dense SPD risk: GᵀG/n + diagonal jitter.
	g := linalg.NewMatrix(n+3, n)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64() * 0.1
	}
	risk := g.AtA()
	risk.AddDiag(0.005)
	cfg := Config{
		Horizon: h, Alpha: 2 + 8*rng.Float64(),
		AMin: 1, AMax: 1.3 + 0.4*rng.Float64(),
		AMaxPerMarket: 0.4 + 0.6*rng.Float64(),
		ChurnKappa:    rng.Float64(),
	}
	in := uniformInputs(h, 50+400*rng.Float64(), costs, fails, risk)
	prev := linalg.NewVector(n)
	prev[rng.Intn(n)] = 1
	in.PrevAlloc = prev
	return cfg, in
}

func plansIdentical(t *testing.T, tag string, a, b *Plan) {
	t.Helper()
	if a.Status != b.Status || a.Iterations != b.Iterations {
		t.Fatalf("%s: status/iterations diverge: %v/%d vs %v/%d",
			tag, a.Status, a.Iterations, b.Status, b.Iterations)
	}
	if a.Objective != b.Objective {
		t.Fatalf("%s: objective diverges: %v vs %v", tag, a.Objective, b.Objective)
	}
	if len(a.Alloc) != len(b.Alloc) {
		t.Fatalf("%s: horizon mismatch", tag)
	}
	for τ := range a.Alloc {
		for i := range a.Alloc[τ] {
			if a.Alloc[τ][i] != b.Alloc[τ][i] {
				t.Fatalf("%s: alloc[%d][%d] diverges: %v vs %v",
					tag, τ, i, a.Alloc[τ][i], b.Alloc[τ][i])
			}
		}
	}
}

// TestOptimizeParallelismBitIdentical is the tentpole acceptance gate:
// over randomized MPO instances, the parallel solve must return exactly the
// serial portfolio — same allocations, objective, and iteration count.
func TestOptimizeParallelismBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 24; iter++ {
		cfg, in := randMPOInstance(rng)
		cfg.Parallelism = 0
		serial, err := Optimize(cfg, in)
		if err != nil {
			t.Fatalf("iter %d: serial solve: %v", iter, err)
		}
		cfg.Parallelism = 4
		par, err := Optimize(cfg, in)
		if err != nil {
			t.Fatalf("iter %d: parallel solve: %v", iter, err)
		}
		plansIdentical(t, "FISTA", serial, par)
	}
}

// TestOptimizeCandidatesMatchesSequential checks that the concurrent
// candidate sweep returns, in order, exactly what one-at-a-time Optimize
// calls return.
func TestOptimizeCandidatesMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cands []Candidate
	for k := 0; k < 9; k++ {
		cfg, in := randMPOInstance(rng)
		cands = append(cands, Candidate{Name: "inst", Cfg: cfg, In: in})
	}
	got := OptimizeCandidates(cands, 4)
	for k, c := range cands {
		want, err := Optimize(c.Cfg, c.In)
		if err != nil {
			t.Fatalf("candidate %d: %v", k, err)
		}
		if got[k].Err != nil {
			t.Fatalf("candidate %d: sweep error %v", k, got[k].Err)
		}
		plansIdentical(t, "candidate", want, got[k].Plan)
	}
}

// TestSweepAlphaOrdersResults checks the alpha sweep returns one plan per
// alpha, in order, with risk concentration decreasing as alpha rises.
func TestSweepAlphaOrdersResults(t *testing.T) {
	costs := []float64{0.001, 0.0011, 0.0012, 0.0013}
	fails := []float64{0.05, 0.05, 0.05, 0.05}
	risk := diagRisk(0.05, 0.01, 0.01, 0.01)
	cfg := Config{Horizon: 3, AMin: 1, AMax: 1.4, AMaxPerMarket: 1, Parallelism: 4}
	in := uniformInputs(3, 100, costs, fails, risk)
	alphas := []float64{0.1, 1, 10, 100}
	res := SweepAlpha(cfg, in, alphas)
	if len(res) != len(alphas) {
		t.Fatalf("got %d results, want %d", len(res), len(alphas))
	}
	prevMax := 2.0
	for k, r := range res {
		if r.Err != nil {
			t.Fatalf("alpha %v: %v", alphas[k], r.Err)
		}
		if r.Candidate.Cfg.Alpha != alphas[k] {
			t.Fatalf("result %d out of order: alpha %v", k, r.Candidate.Cfg.Alpha)
		}
		var mx float64
		for _, v := range r.Plan.First() {
			if v > mx {
				mx = v
			}
		}
		if mx > prevMax+1e-9 {
			t.Fatalf("alpha %v: concentration %v rose above %v", alphas[k], mx, prevMax)
		}
		prevMax = mx
	}
}
