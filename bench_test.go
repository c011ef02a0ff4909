// Benchmarks regenerating every table and figure of the paper's evaluation
// (one benchmark per experiment id; see DESIGN.md §4 for the index), plus
// micro-benchmarks of the optimizer at the paper's scalability sweep points.
// Run with:
//
//	go test -bench=. -benchmem
package spotweb_test

import (
	"io"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/portfolio"
	"repro/internal/predict"
	"repro/internal/trace"
)

var benchOpt = experiments.Options{Quick: true, Seed: 42}

// BenchmarkTable1Matrix regenerates Table 1 (feature comparison).
func BenchmarkTable1Matrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1(io.Discard)
	}
}

// BenchmarkFig3Traces regenerates the Fig. 3 workload traces.
func BenchmarkFig3Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig3Traces(io.Discard, benchOpt)
	}
}

// BenchmarkFig4aLoadBalancer runs the §6.1 testbed experiment (real HTTP
// servers, compressed time). This is a wall-clock-bound experiment.
func BenchmarkFig4aLoadBalancer(b *testing.B) {
	if testing.Short() {
		b.Skip("real-time testbed")
	}
	for i := 0; i < b.N; i++ {
		experiments.Fig4a(io.Discard, benchOpt)
	}
}

// BenchmarkFig4PredictorErrors regenerates the Fig. 4(c)/(d) prediction
// error distributions.
func BenchmarkFig4PredictorErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4cd(io.Discard, benchOpt)
	}
}

// BenchmarkFig5PriceAwareness regenerates Fig. 5 (price series + allocation
// series under the constant portfolio and under MPO).
func BenchmarkFig5PriceAwareness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig5(io.Discard, benchOpt)
	}
}

// BenchmarkFig6aConstantPortfolio regenerates Fig. 6(a) (SpotWeb vs constant
// portfolio with autoscaler).
func BenchmarkFig6aConstantPortfolio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6a(io.Discard, benchOpt)
	}
}

// BenchmarkFig6bExoSphereLoop regenerates Fig. 6(b) (SpotWeb vs
// ExoSphere-in-a-loop across market counts and horizons).
func BenchmarkFig6bExoSphereLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6b(io.Discard, benchOpt, "wiki")
	}
}

// BenchmarkTV4Workload regenerates the §6.4 TV4 (VoD) variant of Fig. 6(b).
func BenchmarkTV4Workload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6b(io.Discard, benchOpt, "vod")
	}
}

// BenchmarkFig7aPredictionAccuracy regenerates Fig. 7(a) (savings vs
// predictor accuracy).
func BenchmarkFig7aPredictionAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7a(io.Discard, benchOpt)
	}
}

// BenchmarkFig7bOptimizerScalability regenerates Fig. 7(b) (optimizer
// wall-time sweep).
func BenchmarkFig7bOptimizerScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7b(io.Discard, benchOpt)
	}
}

// mpoInputs builds synthetic optimizer inputs at a given scale.
func mpoInputs(rng *rand.Rand, n, h int) (*portfolio.Inputs, portfolio.Config) {
	risk := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		risk.Set(i, i, 0.003+0.01*rng.Float64())
	}
	in := &portfolio.Inputs{Risk: risk}
	for τ := 0; τ < h; τ++ {
		costs := make([]float64, n)
		fails := make([]float64, n)
		for i := 0; i < n; i++ {
			costs[i] = 0.0005 + 0.01*rng.Float64()
			fails[i] = 0.15 * rng.Float64()
		}
		in.Lambda = append(in.Lambda, 3000)
		in.PerReqCost = append(in.PerReqCost, costs)
		in.FailProb = append(in.FailProb, fails)
	}
	return in, portfolio.Config{Horizon: h, ChurnKappa: 0.5}
}

// BenchmarkMPOSolve benchmarks one optimizer solve at the Fig. 7(b) sweep
// points (markets × horizon), FISTA backend.
func BenchmarkMPOSolve(b *testing.B) {
	for _, n := range []int{9, 36, 144} {
		for _, h := range []int{2, 6, 10} {
			b.Run(benchName(n, h), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				in, cfg := mpoInputs(rng, n, h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := portfolio.Optimize(cfg, in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// denseMPOInputs is mpoInputs with a dense group-structured risk matrix, the
// shape the real catalog produces and the one the parallel kernels target.
func denseMPOInputs(rng *rand.Rand, n, h int) (*portfolio.Inputs, portfolio.Config) {
	in, cfg := mpoInputs(rng, n, h)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%6 == j%6 {
				v := 0.002 * rng.Float64()
				in.Risk.Set(i, j, v)
				in.Risk.Set(j, i, v)
			}
		}
	}
	return in, cfg
}

// BenchmarkMPOSolveParallel measures the tentpole speedup: serial vs pooled
// solves at the paper's scalability frontier (hundreds of markets, long
// horizons). Plans are bit-identical between the two variants; only latency
// differs. Single-core runners show parity — the speedup needs ≥4 cores.
func BenchmarkMPOSolveParallel(b *testing.B) {
	for _, n := range []int{50, 200, 500} {
		for _, h := range []int{4, 12, 24} {
			b.Run(benchName(n, h)+"/serial", func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				in, cfg := denseMPOInputs(rng, n, h)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := portfolio.Optimize(cfg, in); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(benchName(n, h)+"/parallel", func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				in, cfg := denseMPOInputs(rng, n, h)
				cfg.Parallelism = -1
				linalg.SetPool(parallel.Default())
				defer linalg.SetPool(nil)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := portfolio.Optimize(cfg, in); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchName(n, h int) string {
	return "markets=" + itoa(n) + "/H=" + itoa(h)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkMetricsObserve measures the observability hot paths the request
// loop pays per served request: counter increment (serial and contended),
// histogram observation, SLO-tracker observation — and the disabled path,
// where a nil registry hands out nil handles whose methods must cost one
// branch (the overhead contract in DESIGN.md).
func BenchmarkMetricsObserve(b *testing.B) {
	b.Run("counter-inc", func(b *testing.B) {
		c := metrics.NewRegistry().Counter("bench_total", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-inc-parallel", func(b *testing.B) {
		c := metrics.NewRegistry().Counter("bench_total", "")
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Inc()
			}
		})
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := metrics.NewRegistry().Histogram("bench_seconds", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.0042)
		}
	})
	b.Run("slo-observe", func(b *testing.B) {
		s := metrics.NewSLOTracker(0, 0, 0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.Observe(4200 * 1000) // 4.2ms in ns (time.Duration)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var reg *metrics.Registry // nil registry: the "metrics off" mode
		c := reg.Counter("bench_total", "")
		h := reg.Histogram("bench_seconds", "")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			h.Observe(0.0042)
		}
	})
}

// BenchmarkSplinePredictorStep measures one Observe+Predict cycle of the
// workload predictor at steady state.
func BenchmarkSplinePredictorStep(b *testing.B) {
	cfg := trace.WikipediaLike(1)
	s := cfg.Generate()
	p := predict.NewSplinePredictor(predict.SplineConfig{ARLag1: true, CIProb: 0.99}, 4)
	for _, v := range s.Values {
		p.Observe(v)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(4)
		p.Observe(s.Values[i%s.Len()])
	}
}

// BenchmarkCatalogGeneration measures building a 100-type market catalog
// with two months of price/failure dynamics.
func BenchmarkCatalogGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		market.CatalogConfig{Seed: int64(i), NumTypes: 100, Hours: 24 * 60}.Generate()
	}
}

// BenchmarkCovarianceMatrix measures the risk-matrix estimation the planner
// performs each interval (36 markets, two-week window).
func BenchmarkCovarianceMatrix(b *testing.B) {
	cat := market.CatalogConfig{Seed: 1, NumTypes: 36, Hours: 24 * 30}.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat.CovarianceMatrix(24*20, 24*14)
	}
}

// BenchmarkFig4aSimDES regenerates the discrete-event rendition of Fig. 4(a)
// (full paper time scale, request-level simulation).
func BenchmarkFig4aSimDES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig4aSim(io.Discard, benchOpt)
	}
}
