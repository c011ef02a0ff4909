package solver

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

func BenchmarkBoxBandProject(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			lo := linalg.NewVector(n)
			hi := linalg.NewVector(n)
			hi.Fill(1)
			set := NewBoxBand(lo, hi, 1, 1.5)
			rng := rand.New(rand.NewSource(1))
			x := linalg.NewVector(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range x {
					x[j] = rng.NormFloat64()
				}
				set.Project(x)
			}
		})
	}
}

func BenchmarkSolveFISTA(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	_, proj := portfolioLikeQP(rng, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SolveFISTA(proj, FISTASettings{MaxIter: 2000, Tol: 1e-8})
	}
}

// benchPools reports the serial baseline and a shared-pool variant so the
// nightly benchmark artifact records the parallel speedup directly.
func benchPools(b *testing.B, run func(b *testing.B, pool *parallel.Pool)) {
	b.Run("serial", func(b *testing.B) { run(b, nil) })
	b.Run("parallel", func(b *testing.B) {
		pool := parallel.Default()
		linalg.SetPool(pool)
		defer linalg.SetPool(nil)
		run(b, pool)
	})
}

func BenchmarkSolveFISTASerialVsParallel(b *testing.B) {
	for _, sz := range []struct{ n, h int }{{50, 4}, {200, 12}, {500, 24}} {
		b.Run("n"+strconv.Itoa(sz.n)+"xh"+strconv.Itoa(sz.h), func(b *testing.B) {
			benchPools(b, func(b *testing.B, pool *parallel.Pool) {
				proj := multiPeriodQP(rand.New(rand.NewSource(7)), sz.n, sz.h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SolveFISTA(proj, FISTASettings{MaxIter: 500, Tol: 1e-8, Workers: pool})
				}
			})
		})
	}
}
