// Package spotweb is the public API of this SpotWeb reproduction — a
// framework for running latency-sensitive clustered web services on
// transient (revocable, spot) cloud servers while meeting SLOs, after
// Ali-Eldin et al., "SpotWeb: Running Latency-sensitive Distributed Web
// Services on Transient Cloud Servers" (HPDC 2019).
//
// The three ideas of the paper map onto this package as follows:
//
//   - Multi-period portfolio optimization (MPO): Controller drives a
//     receding-horizon optimizer that picks, for each interval of a
//     planning horizon, the fraction of predicted load to place on each
//     server market, minimizing provisioning cost + SLA-violation cost +
//     quadratic revocation risk, subject to the paper's allocation
//     constraints. Only the first interval executes.
//   - Transiency-aware load balancing: Balancer is a smooth weighted
//     round-robin scheduler with online weight resets, session migration off
//     revoked servers inside the warning period, and admission control.
//   - Intelligent over-provisioning: the default workload predictor is a
//     cubic-spline regression with an AR(1) spike model whose 99%
//     confidence-interval upper bound sets provisioned capacity.
//
// Construct a market Catalog (synthetic generators are provided), wrap it in
// a Controller, feed it one observed arrival rate per interval, and apply
// the returned server counts and balancer weights:
//
//	cat := spotweb.SyntheticCatalog(spotweb.CatalogConfig{NumTypes: 18, Hours: 24 * 21})
//	ctrl, _ := spotweb.NewController(spotweb.ControllerOptions{Catalog: cat})
//	for t := 0; t < n; t++ {
//	    dec, _ := ctrl.Step(t, observedRate(t))
//	    apply(dec.Counts)            // launch/stop servers per market
//	    lb.UpdatePortfolio(dec.Weights) // reset WRR weights
//	}
//
// The internal packages hold the full system (solvers, predictors,
// simulator, HTTP testbed, experiment harness); this package re-exports the
// pieces a deployment needs.
package spotweb

import (
	"fmt"

	"repro/internal/federation"
	"repro/internal/lb"
	"repro/internal/market"
	"repro/internal/metrics"
	"repro/internal/portfolio"
	"repro/internal/predict"
)

// Re-exported core types. The aliases make the internal implementations
// part of the public API without duplicating them.
type (
	// Catalog is the set of purchasable server markets.
	Catalog = market.Catalog
	// Market is one instance type offered on-demand or transient.
	Market = market.Market
	// InstanceType describes a server configuration.
	InstanceType = market.InstanceType
	// CatalogConfig parameterizes synthetic catalog generation.
	CatalogConfig = market.CatalogConfig
	// OptimizerConfig holds the MPO parameters (α, P, L, AMin/AMax/aMax,
	// horizon, churn weight).
	OptimizerConfig = portfolio.Config
	// Plan is a full multi-period optimizer output.
	Plan = portfolio.Plan
	// Balancer is the transiency-aware load balancer.
	Balancer = lb.Balancer
	// Predictor forecasts a time series one Observe per interval.
	Predictor = predict.Predictor
	// ForecastSource supplies market price/failure forecasts.
	ForecastSource = portfolio.ForecastSource
	// MetricsRegistry is the observability registry (counters, gauges,
	// latency histograms, SLO trackers) exposed in Prometheus text format.
	MetricsRegistry = metrics.Registry
	// EventJournal is the bounded structured event log of the revocation
	// lifecycle.
	EventJournal = metrics.Journal
)

// NewMetricsRegistry returns an empty observability registry. Passing nil
// registries everywhere is the supported "metrics off" mode.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewEventJournal returns a bounded event journal (capacity ≤ 0 → 1024).
func NewEventJournal(capacity int) *EventJournal { return metrics.NewJournal(capacity) }

// NewBalancer returns a transiency-aware load balancer with the paper's
// defaults (85% high-utilization threshold).
func NewBalancer() *Balancer { return lb.NewBalancer() }

// SyntheticCatalog generates a seeded synthetic market catalog.
func SyntheticCatalog(cfg CatalogConfig) *Catalog { return cfg.Generate() }

// PriceForecastMode selects the price predictor wired into the controller.
type PriceForecastMode int

const (
	// PriceMeanRevert forecasts spot prices reverting toward their trailing
	// mean (SpotWeb's price predictor; the default).
	PriceMeanRevert PriceForecastMode = iota
	// PriceReactive assumes future prices equal current prices.
	PriceReactive
)

// ControllerOptions configures NewController. Zero values take the paper's
// defaults.
type ControllerOptions struct {
	// Catalog is required.
	Catalog *Catalog
	// Optimizer parameters; zero fields default per the paper (§6: α = 5,
	// P = 0.02, L = 0, H = 4).
	Optimizer OptimizerConfig
	// Workload overrides the default spline + AR(1) + 99%-CI predictor.
	Workload Predictor
	// Prices selects the price forecaster.
	Prices PriceForecastMode
	// Source overrides the ForecastSource entirely (advanced).
	Source ForecastSource
	// Metrics, when set, instruments the control loop (solver iterations,
	// wall time, residual, plan churn, expected spend).
	Metrics *MetricsRegistry
	// Risk, when set, supplies a live failure-probability overlay the
	// planner consults before every solve (the internal/risk estimator fed
	// from the event journal; nil keeps the declared catalog values).
	Risk portfolio.OverlayProvider
	// Federation, when set, swaps the single-catalog planner for the
	// hierarchically sharded federated planner: one portfolio shard per AZ,
	// coordinated over the global allocation budget. Catalog may be left nil
	// (it defaults to the federation's merged view); when set it must BE the
	// merged view.
	Federation *federation.Federation
	// FederationPlanner tunes the sharded planner (coordination rounds,
	// share floor, shard-solve parallelism). Optimizer is always taken from
	// the Optimizer field above; zero values default.
	FederationPlanner federation.PlannerConfig
}

// Decision is the per-interval controller output.
type Decision struct {
	// Counts is the number of servers to run in each market.
	Counts []int
	// Weights maps market index → WRR weight (relative capacity share of
	// the new portfolio), ready for Balancer.UpdatePortfolio.
	Weights map[int]float64
	// PredictedRate is the padded workload forecast the counts are sized
	// for (req/s).
	PredictedRate float64
	// Capacity is the total req/s capacity of Counts.
	Capacity float64
	// Plan is the full optimizer output (all horizon steps).
	Plan *Plan
}

// stepper is the planning interface shared by the single-catalog
// portfolio.Planner and the sharded federation.Planner.
type stepper interface {
	Step(t int, actualLambda float64) (*portfolio.Decision, error)
}

// Controller is the SpotWeb control loop: predictors → MPO optimizer →
// portfolio execution, one Step per monitoring interval.
type Controller struct {
	planner stepper
	cat     *Catalog
}

// NewController wires a controller from options.
func NewController(opt ControllerOptions) (*Controller, error) {
	if opt.Federation != nil && opt.Catalog == nil {
		opt.Catalog = opt.Federation.Merged
	}
	if opt.Catalog == nil {
		return nil, fmt.Errorf("spotweb: ControllerOptions.Catalog is required")
	}
	if err := opt.Catalog.Validate(); err != nil {
		return nil, err
	}
	cfg := opt.Optimizer.WithDefaults()
	wl := opt.Workload
	if wl == nil {
		wl = predict.NewSplinePredictor(predict.SplineConfig{
			StepHrs: opt.Catalog.StepHrs,
			ARLag1:  true,
			CIProb:  0.99,
		}, cfg.Horizon)
	}
	src := opt.Source
	if src == nil {
		switch opt.Prices {
		case PriceReactive:
			src = portfolio.ReactiveSource{Cat: opt.Catalog}
		default:
			src = portfolio.MeanRevertSource{Cat: opt.Catalog}
		}
	}
	if fed := opt.Federation; fed != nil {
		if opt.Catalog != fed.Merged {
			return nil, fmt.Errorf("spotweb: with Federation set, Catalog must be the federation's merged view")
		}
		pcfg := opt.FederationPlanner
		pcfg.Portfolio = cfg
		planner := federation.NewPlanner(fed, pcfg, wl, src)
		planner.Metrics = opt.Metrics
		planner.RiskOverlay = opt.Risk
		return &Controller{planner: planner, cat: opt.Catalog}, nil
	}
	planner := portfolio.NewPlanner(cfg, opt.Catalog, wl, src)
	planner.Metrics = opt.Metrics
	planner.RiskOverlay = opt.Risk
	return &Controller{
		planner: planner,
		cat:     opt.Catalog,
	}, nil
}

// Step observes the actual arrival rate of interval t and plans interval
// t+1: it returns the server counts per market and the new balancer weights.
func (c *Controller) Step(t int, observedRate float64) (*Decision, error) {
	dec, err := c.planner.Step(t, observedRate)
	if err != nil {
		return nil, err
	}
	weights := make(map[int]float64)
	for i, n := range dec.Counts {
		if n > 0 {
			weights[i] = float64(n) * c.cat.Markets[i].Type.Capacity
		}
	}
	return &Decision{
		Counts:        dec.Counts,
		Weights:       weights,
		PredictedRate: dec.PredictedLambda,
		Capacity:      dec.Capacity,
		Plan:          dec.Plan,
	}, nil
}
