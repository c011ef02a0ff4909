package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/sweep"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n          int
		want, p, v float64
	}{
		{n: 10000, want: 99, p: 99, v: 9900}, // 100 beyond p99
		{n: 1000, want: 99, p: 99, v: 990},   // exactly 10 beyond
		{n: 999, want: 99, p: 95, v: 950},    // p99 has 9 beyond → p95
		{n: 100, want: 90, p: 90, v: 90},     // exactly 10 beyond p90
		{n: 99, want: 90, p: 75, v: 75},      // p90 has 9 beyond → p75
		{n: 20000, want: 99.9, p: 99.9, v: 19980},
		{n: 5, want: 99, p: 50, v: 3}, // too few for any tail: the median
	}
	for _, c := range cases {
		p, v := tail(seq(c.n), c.want)
		if p != c.p || v != c.v {
			t.Errorf("tail(n=%d, p%g) = p%g %v, want p%g %v", c.n, c.want, p, v, c.p, c.v)
		}
		if p != 50 && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond", c.n, p, beyond(c.n, p))
		}
	}
}

// fakeClock advances only when slept on or stalled.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopCountsStallAgainstQueuedRequests(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	const interval = time.Millisecond
	issued := map[int]time.Time{}
	dues := map[int]time.Time{}
	late := openLoop(clk, start, 20, interval, func(i int, due time.Time) {
		issued[i], dues[i] = clk.now, due
		if i == 3 {
			clk.Sleep(10 * time.Millisecond) // the generator stalls while issuing request 3
		}
	})
	for i := 0; i < 20; i++ {
		if want := start.Add(time.Duration(i) * interval); !dues[i].Equal(want) {
			t.Fatalf("request %d due %v, want %v: due times must follow the schedule, not the stall", i, dues[i], want)
		}
	}
	// Requests 4..13 fell due during the stall and went out at its end, so
	// each one's time from due includes the part of the stall it queued for.
	stallEnd := start.Add(3*interval + 10*time.Millisecond)
	for i := 4; i <= 13; i++ {
		if !issued[i].Equal(stallEnd) {
			t.Errorf("request %d issued at %v, want %v (at once, behind schedule)", i, issued[i], stallEnd)
		}
		if want := time.Duration(13-i) * interval; issued[i].Sub(dues[i]) != want {
			t.Errorf("request %d waited %v from due, want %v", i, issued[i].Sub(dues[i]), want)
		}
	}
	if want := 9 * time.Millisecond; late != want {
		t.Errorf("generator lateness %v, want %v", late, want)
	}
	if issued[14].Before(dues[14]) {
		t.Errorf("request 14 issued before it was due")
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "child", parent: 0, start: 10, end: 30},
		{name: "child", parent: 0, start: 20, end: 50},  // overlaps the first child
		{name: "child", parent: 0, start: 90, end: 120}, // runs past the parent
		{name: "grandchild", parent: 1, start: 12, end: 18},
	}
	lt := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the root: 50 of 100.
	if got := lt["root"].own; got != 50 {
		t.Errorf("root self = %d, want 50", got)
	}
	// child self: 20−6 + 30 + 30 = 74; grandchild is not the root's child.
	if got := lt["child"].own; got != 74 {
		t.Errorf("child self = %d, want 74", got)
	}
	if got, want := lt["child"].calls, 3; got != want {
		t.Errorf("child calls = %d, want %d", got, want)
	}
	if got := lt["grandchild"].own; got != 6 {
		t.Errorf("grandchild self = %d, want 6", got)
	}
	if got := covered(0, 10, nil); got != 0 {
		t.Errorf("covered with no children = %d", got)
	}
}

// cells_per_s is timed on the grids whose inputs do not depend on the seed:
// the fixed core, or a slice's one grid, which always runs at refSeed.
func TestSweepRateTimesFixedGridsOnly(t *testing.T) {
	own := newSweepLeg(42, 2, 1, 1)
	if len(own.grids) != 3 || own.timed != 2 || own.grids[2].BaseSeed != 42 {
		t.Errorf("own leg: %d grids, %d timed, last at base seed %d; want 3, 2, 42",
			len(own.grids), own.timed, own.grids[len(own.grids)-1].BaseSeed)
	}
	if sl := newSweepLeg(refSeed, 0, 8, 5); len(sl.grids) != 1 || sl.timed != 1 {
		t.Errorf("slice: %d grids, %d timed; want 1, 1", len(sl.grids), sl.timed)
	}
}

// The sampler's peak follows memory the process touches, and a reset
// starts it again from the current resident size.
func TestRSSSamplerTracksPeakSinceReset(t *testing.T) {
	s, err := startRSS()
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	base := s.peakMB()
	buf := make([]byte, 64<<20)
	for i := 0; i < len(buf); i += 4096 {
		buf[i] = 1
	}
	if got := s.peakMB(); got < base+60 {
		t.Errorf("peak %.1f MB after touching 64 MiB, was %.1f MB", got, base)
	}
	runtime.KeepAlive(buf)
	beginRep() // returns the freed pages, but samples nothing: rss is nil here
	s.reset()
	if got := s.peakMB(); got > base+32 {
		t.Errorf("peak %.1f MB after a reset with the buffer freed, base %.1f MB", got, base)
	}
}

// The traced sweep rebuilds each leg from public pieces; it must reproduce
// runner.RunStandard exactly, or the trace measures another program.
func TestTracedSweepLegReproducesRunStandard(t *testing.T) {
	l := newSweepLeg(7, 1, 1, 1)
	if _, err := l.run(0, false); err != nil {
		t.Fatal(err)
	}
	res, err := l.run(0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) != 0 || res.failed != 0 {
		t.Fatalf("traced sweep: %v", res.problems)
	}
	// And directly against RunStandard for one risk-variant cell, the
	// variant whose estimator is wrapped too.
	sc, err := chaos.Resolve("storm")
	if err != nil {
		t.Fatal(err)
	}
	v, err := sweep.BuiltinVariant("risk")
	if err != nil {
		t.Fatal(err)
	}
	seed := sweep.SeedFor(7, 0)
	env, err := runner.NewStandardEnv(sc, seed, runner.ScenarioHours(true))
	if err != nil {
		t.Fatal(err)
	}
	opt := runner.OptionsFrom(sc, v.Config)
	rep, _, err := runner.RunStandard(env, opt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := &nest{tr: newTracer()}
	got, _, err := tracedLeg(n, env.Spiked, env, opt, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if round6(got.TotalCost) != rep.CostUSD || round6(got.ViolationPct) != rep.ViolationPct {
		t.Fatalf("traced leg cost %v violation %v, RunStandard %v %v",
			got.TotalCost, got.ViolationPct, rep.CostUSD, rep.ViolationPct)
	}
	if lt := selfTimes(n.tr.spans); lt["risk.observe"] == nil || lt["portfolio.step"] == nil || lt["predict.predict"] == nil {
		t.Fatalf("traced leg recorded no risk, planner or predictor spans")
	}
}

func TestSmokeRunsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tiny := sizes{sweepCore: 1, sweepSeeds: 1, planRounds: 12, planCore: 1, planTraces: 1, servePass: time.Second, passes: 1}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := runWorkload(w, 11, time.Second, traced, tiny, tiny, t.TempDir())
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d problems=%v", w, traced, res.Correct, res.Attempted, res.problems)
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.name]; ok == (d.endToEnd == traced) {
					t.Errorf("%s traced=%v: metric %s presence wrong", w, traced, d.name)
				}
			}
		}
	}
}

// Every configuration a benchmark run uses at the reference seed has
// recorded reference values, so the quality checks cannot silently lapse.
func TestReferencesCoverRunConfigurations(t *testing.T) {
	for _, w := range workloads {
		for _, l := range newLegs(w, refSeed, measured, slice) {
			if key := refKey(l); key != "" {
				if _, ok := references[key]; !ok {
					t.Errorf("workload %s: no reference values for %s", w, key)
				}
			}
		}
	}
}

func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloads)
	}
	for i := range names {
		if names[i] != workloads[i] {
			t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, workloads)
		}
	}
	seen := 0
	for _, list := range []struct {
		ms  []struct{ Name, Unit, Better string }
		e2e bool
	}{{bench.EndToEnd, true}, {bench.PerLayer, false}} {
		for _, m := range list.ms {
			d, ok := defOf(m.Name)
			if !ok || d.unit != m.Unit || d.better != m.Better || d.endToEnd != list.e2e {
				t.Errorf("BENCHMARK.json metric %+v does not match the program's %+v", m, d)
			}
			seen++
		}
	}
	if seen != len(defs) {
		t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", seen, len(defs))
	}
}
