package main

// metricDef declares one reported metric. The same names, units and
// directions are in BENCHMARK.json at the repository root.
type metricDef struct {
	name, unit, better string
	endToEnd           bool
}

// defs lists every metric in print order: end-to-end first, then per layer.
var defs = []metricDef{
	{"setup_s", "s", "lower", true},
	{"rss_peak_mb", "MB", "lower", true},
	{"cells_per_s", "1/s", "higher", true},
	{"sim_cost_usd", "USD", "lower", true},
	{"sim_slo_pct", "%", "higher", true},
	{"round_ms_p50", "ms", "lower", true},
	{"plan_objective", "objective", "lower", true},
	{"req_ms_p50", "ms", "lower", true},
	{"slo_pct", "%", "higher", true},

	{"round_ms_p90", "ms", "lower", false},
	{"sweep.cell_ms_p50", "ms", "lower", false},
	{"sweep.cell_ms_p90", "ms", "lower", false},
	{"sim.self_ms_per_leg", "ms", "lower", false},
	{"portfolio.round_us_p50", "us", "lower", false},
	{"portfolio.inputs_us_p50", "us", "lower", false},
	{"portfolio.short_rounds", "count", "lower", false},
	{"solver.solve_us_p50", "us", "lower", false},
	{"solver.iters_per_solve", "count", "lower", false},
	{"solver.warm_ratio", "ratio", "higher", false},
	{"predict.observe_us", "us", "lower", false},
	{"predict.predict_us", "us", "lower", false},
	{"risk.observe_us", "us", "lower", false},
	{"req_ms_p99", "ms", "lower", false},
	{"gen.late_ms_max", "ms", "lower", false},
	{"gen.start_wait_ms_p99", "ms", "lower", false},
	{"testbed.front_ms_p50", "ms", "lower", false},
	{"testbed.front_ms_p99", "ms", "lower", false},
	{"testbed.backend_ms_p50", "ms", "lower", false},
	{"lb.proxy_ms_p50", "ms", "lower", false},
	{"testbed.inflight_max", "count", "lower", false},
	{"lb.sticky_hit_ratio", "ratio", "higher", false},
	{"lb.unrouted", "count", "lower", false},
	{"testbed.shed", "count", "lower", false},
	{"chaos.revoked", "count", "higher", false},
	{"lb.migrations", "count", "lower", false},
	{"lb.replacements", "count", "lower", false},
	{"runtime.cpu_us_per_req", "us", "lower", false},
	{"runtime.alloc_kb_per_op", "KB", "lower", false},
	{"runtime.gc_cycles", "count", "lower", false},
	{"trace.overhead_pct", "%", "lower", false},
}

func defOf(name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
