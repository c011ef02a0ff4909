// Command perfbench is the repository's layered benchmark. One process runs
// the three stacks SpotWeb is judged on — a chaos sweep, 288-market planner
// rounds and HTTP serving under a revocation storm — measures end-to-end
// metrics untraced or per-layer metrics traced, checks the outputs, and
// prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// workloads in run order. Every run executes all three legs, so that every
// end-to-end metric is present on every workload: the named workload's own
// leg is measured for the run's seconds on inputs drawn from the run's seed;
// the other two legs run once as fixed slices on the reference seed's
// inputs, which keeps their figures independent of the seed.
var workloads = []string{"sweep-chaos", "plan-288", "serve-storm"}

// sizes sets how much work each leg does.
//
// The own legs of the decision workloads mix fixed inputs (the core) with
// inputs drawn from the seed: the work per cell and the objective per trace
// vary so much with the draw that a leg drawn wholly from the seed would
// swing by a third between seeds, more than a code change moves it.
type sizes struct {
	sweepCore  int           // fixed seed indices of the chaos-suite grid (25 cells each)
	sweepSeeds int           // seed indices drawn from the run's seed
	planRounds int           // rounds per receding-horizon loop
	planCore   int           // fixed traces, one loop each
	planTraces int           // traces drawn from the run's seed, one loop each
	servePass  time.Duration // length of one serving pass
	passes     int           // least sweep batches or serving passes a run makes
}

var (
	// measured is the size of the workload's own leg.
	measured = sizes{sweepCore: 32, sweepSeeds: 8, planRounds: 50, planCore: 3, planTraces: 1,
		servePass: 3 * time.Second, passes: 3}
	// slice is the size of the other two legs.
	slice = sizes{sweepSeeds: 8, planRounds: 100, planTraces: 1, servePass: time.Second, passes: 5}
)

// setupReps is how many times a run builds its inputs; setup_s is the median.
const setupReps = 3

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
	problems  []string
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	seed := flag.Int64("seed", refSeed, "input seed")
	seconds := flag.Int("seconds", 10, "measurement length of the workload's own leg")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "spans"), "directory traced runs write their spans to")
	flag.Parse()
	// Sized for a 2-core host: never more threads than cores, nor than 2.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *spans))
	}
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s, all)\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	res := runWorkload(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, measured, slice, *spans)
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// newLegs builds the three legs: the workload's own leg first, at the
// measured size and the run's seed, so that it runs in a fresh process;
// then the others at the slice size and refSeed.
func newLegs(workload string, seed int64, own, other sizes) []leg {
	pick := func(w string) (sizes, int64) {
		if w == workload {
			return own, seed
		}
		return other, refSeed
	}
	sw, swSeed := pick("sweep-chaos")
	pl, plSeed := pick("plan-288")
	sv, svSeed := pick("serve-storm")
	legs := []leg{
		newSweepLeg(swSeed, sw.sweepCore, sw.sweepSeeds, sw.passes),
		newPlanLeg(plSeed, pl.planRounds, pl.planCore, pl.planTraces),
		newServeLeg(svSeed, sv.servePass, sv.passes),
	}
	sort.SliceStable(legs, func(a, b int) bool { return legs[a].name() == workload && legs[b].name() != workload })
	return legs
}

// runWorkload makes one run: set up every leg setupReps times, then measure
// each leg — untraced for end-to-end metrics, or untraced then traced for
// per-layer metrics — and check its outputs.
func runWorkload(workload string, seed int64, budget time.Duration, traced bool, own, other sizes, spanDir string) *result {
	res := &result{Correct: true, Metrics: map[string]metricOut{}}
	legs := newLegs(workload, seed, own, other)
	defer func() {
		for _, l := range legs {
			l.close()
		}
	}()

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		for _, l := range legs {
			if err := l.setup(); err != nil {
				res.fail(fmt.Sprintf("%s setup: %v", l.name(), err))
				return res
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	if !traced {
		s, err := startRSS()
		if err != nil {
			res.fail(fmt.Sprintf("resident memory sampler: %v", err))
			return res
		}
		rss = s
		defer func() { rss.close(); rss = nil }()
	}
	vals := map[string]float64{}
	for _, l := range legs {
		measureLeg(res, vals, l, workload, seed, budget, traced, spanDir)
		l.close()
	}

	if !traced {
		vals["setup_s"] = median(setups)
	}
	for _, d := range defs {
		if d.endToEnd == traced {
			continue
		}
		v, ok := vals[d.name]
		switch {
		case !ok:
			res.fail(fmt.Sprintf("metric %s was not measured", d.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			res.fail(fmt.Sprintf("metric %s is not finite", d.name))
		default:
			res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		}
	}
	return res
}

// measureLeg measures one leg — untraced, and traced when the run is —
// checks its outputs into res, and stores the metrics it owns in vals.
func measureLeg(res *result, vals map[string]float64, l leg, workload string, seed int64,
	budget time.Duration, traced bool, spanDir string) {
	legBudget := time.Duration(0)
	if l.name() == workload {
		legBudget = budget
	}
	// Each leg starts from a collected heap and releases its inputs
	// when done, so one leg's garbage is not collected in another's time.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u, err := l.run(legBudget, false)
	runtime.ReadMemStats(&ms1)
	res.add(l.name(), u, err)
	if err != nil {
		return
	}
	checkReference(res, l, u.e2e)
	if !traced {
		// The run's peak memory is that of its hungriest leg: the median
		// over the leg's repetitions of each one's peak.
		if len(u.rssMB) == 0 {
			res.fail(fmt.Sprintf("%s: no resident memory sample", l.name()))
		} else {
			m := median(u.rssMB)
			logf("%s: peak RSS median %.1f MB over %d repetitions (%.1f–%.1f)",
				l.name(), m, len(u.rssMB), slices.Min(u.rssMB), slices.Max(u.rssMB))
			vals["rss_peak_mb"] = max(vals["rss_peak_mb"], m)
		}
		for k, v := range u.e2e {
			vals[k] = v
		}
		return
	}
	t, err := l.run(legBudget, true)
	res.add(l.name()+" (traced)", t, err)
	if err != nil {
		return
	}
	// Per-layer metrics come from the traced pass, except the few that
	// tracing would distort, which the untraced pass reports.
	for _, layers := range []map[string]float64{u.layers, t.layers} {
		for k, v := range layers {
			if owner(k, workload) == l.name() {
				vals[k] = v
			}
		}
	}
	if l.name() == workload {
		ops := float64(max(u.attempted, 1))
		vals["runtime.alloc_kb_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / ops
		vals["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
		vals["trace.overhead_pct"] = 100 * (median(t.opWall)/median(u.opWall) - 1)
	}
	if len(t.spans) > 0 {
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d-%s.csv", workload, seed, l.name()))
		if err := writeSpans(path, t.spans); err != nil {
			res.fail(fmt.Sprintf("write spans: %v", err))
		}
	}
}

func (r *result) fail(msg string) {
	r.Correct = false
	r.problems = append(r.problems, msg)
}

// add folds one pass of a leg into the run's counts and check results.
func (r *result) add(name string, lr *legResult, err error) {
	if lr != nil {
		r.Attempted += lr.attempted
		r.Failed += lr.failed
		for _, p := range lr.problems {
			r.fail(name + ": " + p)
		}
	}
	if err != nil {
		r.fail(fmt.Sprintf("%s: %v", name, err))
	}
}

// owner names the leg whose traced pass reports a per-layer metric. Layers
// used by both decision legs report from the workload's own leg, or from
// the planner slice on serve-storm.
func owner(metric, workload string) string {
	if metric == "portfolio.short_rounds" || metric == "round_ms_p90" {
		return "plan-288"
	}
	layer, _, _ := strings.Cut(metric, ".")
	switch layer {
	case "sweep", "sim", "risk":
		return "sweep-chaos"
	case "portfolio", "solver", "predict":
		if workload == "serve-storm" {
			return "plan-288"
		}
		return workload
	case "gen", "testbed", "lb", "chaos":
		return "serve-storm"
	}
	if metric == "runtime.cpu_us_per_req" || metric == "req_ms_p99" {
		return "serve-storm"
	}
	return workload
}

// runAll runs every workload untraced and traced and prints every metric
// with its unit and direction. It returns the process exit code: non-zero
// when any output check failed.
func runAll(seed int64, seconds int, spanDir string) int {
	code := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := runWorkload(w, seed, time.Duration(seconds)*time.Second, traced, measured, slice, spanDir)
			kind := "end-to-end"
			if traced {
				kind = "per-layer"
			}
			fmt.Printf("== %s (%s) seed=%d attempted=%d failed=%d correct=%v\n",
				w, kind, seed, res.Attempted, res.Failed, res.Correct)
			names := make([]string, 0, len(res.Metrics))
			for k := range res.Metrics {
				names = append(names, k)
			}
			sort.SliceStable(names, func(a, b int) bool { return defIndex(names[a]) < defIndex(names[b]) })
			for _, k := range names {
				d, _ := defOf(k)
				fmt.Printf("  %-26s %14.4f %-9s (%s is better)\n", k, res.Metrics[k].Value, d.unit, d.better)
			}
			for _, p := range res.problems {
				fmt.Println("  CHECK FAILED:", p)
			}
			if !res.Correct {
				code = 1
			}
		}
	}
	return code
}

func defIndex(name string) int {
	for i, d := range defs {
		if d.name == name {
			return i
		}
	}
	return len(defs)
}
