package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/chaos/runner"
	"repro/internal/metrics"
	"repro/internal/testbed"
)

// The serving composition: the testbed cluster, its transiency-aware LB and
// the chaos fault driver, as the daemons wire them, sized like the chaos
// runner's testbed mode (3 markets × 2 backends).
const (
	serveMarkets    = 3
	servePerMarket  = 2
	serveCapacity   = 120.0
	serveRate       = 1000.0 // req/s, open loop
	serveSessions   = 64
	serveWarning    = 300 * time.Millisecond
	serveStartDelay = 150 * time.Millisecond
	// serveLimit is the latency limit slo_pct counts against.
	serveLimit = 50 * time.Millisecond
)

// serveLeg drives an open loop through testbed.Cluster.ServeHTTP while the
// storm scenario's timeline fires through runner.FaultDriver.
type serveLeg struct {
	seed   int64
	dur    time.Duration // pass length; the storm timeline spans it
	passes int           // least passes an untraced run makes
	sc     *chaos.Scenario
	// booted is a cluster prepared by setup, taken by the next pass.
	booted *serveCluster
}

// serveCluster is one booted cluster with the fault driver wired into it.
type serveCluster struct {
	c   *testbed.Cluster
	drv *runner.FaultDriver
	j   *metrics.Journal
	reg *metrics.Registry
}

func newServeLeg(seed int64, dur time.Duration, passes int) *serveLeg {
	return &serveLeg{seed: seed, dur: dur, passes: passes}
}

func (l *serveLeg) name() string { return "serve-storm" }

func (l *serveLeg) setup() error {
	sc, err := chaos.Resolve("storm")
	if err != nil {
		return err
	}
	l.sc = sc
	l.close()
	b, err := l.boot(false)
	if err != nil {
		return err
	}
	l.booted = b
	return nil
}

func (l *serveLeg) close() {
	if l.booted != nil {
		l.booted.c.Close()
		l.booted = nil
	}
}

// boot starts the backends, waits until they are in rotation, and prepares
// a fault driver that plays the storm over one pass. An instrumented
// cluster carries a metrics registry.
func (l *serveLeg) boot(instrumented bool) (*serveCluster, error) {
	in, err := chaos.Compile(l.sc, l.seed, serveMarkets)
	if err != nil {
		return nil, err
	}
	sc := &serveCluster{j: metrics.NewJournal(8192)}
	sc.drv = runner.NewFaultDriver(in, l.dur, serveWarning, serveRate)
	if instrumented {
		sc.reg = metrics.NewRegistry()
	}
	sc.c = testbed.NewCluster(testbed.ClusterConfig{
		Backend: testbed.BackendConfig{
			Capacity:        serveCapacity,
			BaseServiceTime: 2 * time.Millisecond,
			StartDelay:      serveStartDelay,
			WarmupDur:       100 * time.Millisecond,
		},
		Warning:        serveWarning,
		Journal:        sc.j,
		Metrics:        sc.reg,
		ActionOverride: sc.drv.Hook(),
	})
	for mkt := 0; mkt < serveMarkets; mkt++ {
		for k := 0; k < servePerMarket; k++ {
			sc.c.AddBackendForMarket(mkt, serveCapacity)
		}
	}
	deadline := time.Now().Add(10 * serveStartDelay)
	for sc.c.TotalReadyCapacity() < serveMarkets*servePerMarket*serveCapacity*0.99 {
		if time.Now().After(deadline) {
			sc.c.Close()
			return nil, fmt.Errorf("backends not ready after %v", 10*serveStartDelay)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return sc, nil
}

// clock is the time source of the open-loop generator.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues n requests from one goroutine, request i due at
// start + i·interval. It sleeps until each due time and issues at once when
// behind schedule, so a stall delays every request queued behind it; issue
// receives the due time, which latency is measured from. It returns how late
// the generator ran at worst.
func openLoop(clk clock, start time.Time, n int, interval time.Duration, issue func(i int, due time.Time)) time.Duration {
	var lateMax time.Duration
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		if late := clk.Now().Sub(due); late > lateMax {
			lateMax = late
		}
		issue(i, due)
	}
	return lateMax
}

// reqRec is one request as the generator saw it.
type reqRec struct {
	due, enter, done time.Time
	ok               bool
}

// sink is a minimal ResponseWriter that keeps the status.
type sink struct {
	h    http.Header
	code int
}

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { s.WriteHeader(http.StatusOK); return len(b), nil }
func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

// run makes passes of the leg's fixed length until the budget is spent (at
// least l.passes), each on a freshly booted cluster with its own storm. The
// first untraced pass uses the cluster setup booted; a traced run makes one
// pass on an instrumented cluster.
func (l *serveLeg) run(budget time.Duration, traced bool) (*legResult, error) {
	res := newLegResult()
	passes := 1
	if !traced {
		passes = max(l.passes, int(budget/l.dur))
	}
	var p50, p99 []float64
	inLimit := 0
	for p := 0; p < passes; p++ {
		sc := l.booted
		l.booted = nil
		if sc == nil || traced {
			if sc != nil {
				sc.c.Close()
			}
			var err error
			if sc, err = l.boot(traced); err != nil {
				return res, err
			}
		}
		beginRep()
		ps, err := l.pass(sc, res)
		endRep(res)
		sc.c.Close()
		if err != nil {
			return res, err
		}
		inLimit += ps.inLimit
		p50 = append(p50, pct(ps.lat, 50))
		p99 = append(p99, tailValue("req_ms_p99", ps.lat, 99))
		logf("serve pass %d: %d requests, p50 %.3fms p99 %.3fms, %d revoked", p+1, len(ps.front), p50[p], p99[p], ps.revoked)
		res.opWall = append(res.opWall, mean(ps.lat)*1e6)
		if traced {
			l.layers(res, sc, ps)
		}
	}
	if !traced {
		// The best pass: contention on a shared host only adds latency, so
		// the pass with the lowest median is the steadiest estimate.
		res.e2e["req_ms_p50"] = slices.Min(p50)
		// The tail varies too much from run to run on a shared host to be
		// gated; it is reported with the per-layer metrics.
		res.layers["req_ms_p99"] = median(p99)
		res.e2e["slo_pct"] = 100 * float64(inLimit) / float64(res.attempted)
	}
	return res, nil
}

// passStats is what one serving pass measured.
type passStats struct {
	lat      []float64 // sorted latency from due time of successful requests, ms
	front    []float64 // sorted ServeHTTP durations, ms
	wait     []float64 // sorted due → ServeHTTP entry, ms
	inLimit  int
	lateMax  time.Duration
	inflight int64
	revoked  int
	spans    []span
}

// pass drives one open-loop pass against a booted cluster while its fault
// driver plays the storm, and checks the pass's outputs into res.
func (l *serveLeg) pass(sc *serveCluster, res *legResult) (*passStats, error) {
	n := int(l.dur.Seconds() * serveRate)
	interval := time.Duration(float64(time.Second) / serveRate)
	recs := make([]reqRec, n)
	rng := rand.New(rand.NewSource(l.seed))
	sessions := make([]string, n)
	for i := range sessions {
		sessions[i] = "s" + strconv.Itoa(rng.Intn(serveSessions))
	}
	traced := sc.reg != nil
	var tr *tracer
	if traced {
		tr = newTracer()
	}

	ctx, cancel := context.WithCancel(context.Background())
	var bg sync.WaitGroup
	bg.Add(1)
	go func() {
		defer bg.Done()
		sc.drv.Run(ctx, sc.c)
	}()
	var inflightMax atomic.Int64
	if traced {
		bg.Add(1)
		go func() {
			defer bg.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if v := sc.c.InflightRequests(); v > inflightMax.Load() {
						inflightMax.Store(v)
					}
				}
			}
		}()
	}

	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // cannot fail for RUSAGE_SELF
	var wg sync.WaitGroup
	var outstanding atomic.Int64
	start := time.Now().Add(time.Millisecond)
	lateMax := openLoop(wallClock{}, start, n, interval, func(i int, due time.Time) {
		wg.Add(1)
		outstanding.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			w := &sink{h: http.Header{}}
			req, _ := http.NewRequest(http.MethodGet, "/", nil) // constant, valid arguments
			req.Header.Set("X-Session", sessions[i])
			enter := time.Now()
			sc.c.ServeHTTP(w, req)
			done := time.Now()
			recs[i] = reqRec{due: due, enter: enter, done: done, ok: w.code == 0 || w.code == http.StatusOK}
			if tr != nil {
				root := tr.add(span{name: "gen.request", op: int64(i), parent: -1,
					start: int64(due.Sub(tr.epoch)), end: int64(done.Sub(tr.epoch))})
				tr.add(span{name: "testbed.front", op: int64(i), parent: root,
					start: int64(enter.Sub(tr.epoch)), end: int64(done.Sub(tr.epoch))})
			}
		}()
	})
	wg.Wait()
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	cancel()
	bg.Wait()

	ps := &passStats{lateMax: lateMax, inflight: inflightMax.Load(), revoked: sc.drv.Revoked()}
	if tr != nil {
		ps.spans = tr.spans
	}
	good := 0
	for _, r := range recs {
		ps.front = append(ps.front, float64(r.done.Sub(r.enter))/1e6)
		ps.wait = append(ps.wait, float64(r.enter.Sub(r.due))/1e6)
		if !r.ok {
			continue
		}
		good++
		lat := r.done.Sub(r.due)
		ps.lat = append(ps.lat, float64(lat)/1e6)
		if lat <= serveLimit {
			ps.inLimit++
		}
	}
	ps.lat, ps.front, ps.wait = sorted(ps.lat), sorted(ps.front), sorted(ps.wait)
	res.attempted += n
	res.failed += n - good
	if o := outstanding.Load(); o != 0 {
		res.problem(fmt.Sprintf("%d requests still outstanding at the end", o))
	}
	if ps.revoked == 0 {
		res.problem("the storm revoked no backend")
	}
	if !traced {
		cpu := func(ru *syscall.Rusage) float64 { return float64(ru.Utime.Nano() + ru.Stime.Nano()) }
		res.layers["runtime.cpu_us_per_req"] = (cpu(&ru1) - cpu(&ru0)) / 1e3 / float64(n)
	}
	if good == 0 {
		return ps, fmt.Errorf("no request succeeded")
	}
	return ps, nil
}

// layers fills the per-layer metrics of a traced pass.
func (l *serveLeg) layers(res *legResult, sc *serveCluster, ps *passStats) {
	res.spans = ps.spans
	res.layers["gen.late_ms_max"] = float64(ps.lateMax) / 1e6
	res.layers["gen.start_wait_ms_p99"] = tailValue("gen.start_wait_ms_p99", ps.wait, 99)
	res.layers["testbed.front_ms_p50"] = pct(ps.front, 50)
	res.layers["testbed.front_ms_p99"] = tailValue("testbed.front_ms_p99", ps.front, 99)
	res.layers["testbed.inflight_max"] = float64(ps.inflight)
	prom := scrape(sc.reg)
	backend := prom.histQuantile("spotweb_backend_request_seconds", 0.5) * 1e3
	res.layers["testbed.backend_ms_p50"] = backend
	res.layers["lb.proxy_ms_p50"] = pct(ps.front, 50) - backend
	if routed := prom.sum(`spotweb_lb_route_total{result="ok"}`); routed > 0 {
		res.layers["lb.sticky_hit_ratio"] = prom.sum("spotweb_lb_sticky_hits_total") / routed
	}
	res.layers["lb.unrouted"] = prom.sum("spotweb_lb_unrouted_total")
	res.layers["testbed.shed"] = prom.sum("spotweb_backend_shed_total")
	res.layers["chaos.revoked"] = float64(ps.revoked)
	counts := sc.j.Counts()
	res.layers["lb.migrations"] = float64(counts[metrics.EvSessionsMigrated])
	res.layers["lb.replacements"] = float64(counts[metrics.EvReplacementStarted])
}

// promText is a scraped Prometheus exposition: series line → value.
type promText map[string]float64

// scrape renders the registry in the Prometheus text format the daemons
// serve and parses it back, so the benchmark reads the same numbers an
// operator would.
func scrape(r *metrics.Registry) promText {
	var b strings.Builder
	r.WritePrometheus(&b)
	out := promText{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		k := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[k+1:], 64)
		if err == nil {
			out[line[:k]] += v
		}
	}
	return out
}

// family returns the metric name and label set of a series key.
func family(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// sum adds up every series whose key is the given series key, or whose
// family is the given name when it carries no labels.
func (p promText) sum(key string) float64 {
	var s float64
	for k, v := range p {
		name, _ := family(k)
		if k == key || (!strings.Contains(key, "{") && name == key) {
			s += v
		}
	}
	return s
}

// histQuantile merges every series of a histogram family (one per backend)
// and returns its q-quantile in seconds, interpolated linearly inside the
// bucket that holds it.
func (p promText) histQuantile(name string, q float64) float64 {
	// Cumulative bucket counts of one series, by upper bound.
	per := map[string]map[float64]float64{}
	for k, v := range p {
		fam, labels := family(k)
		i := strings.Index(labels, `le="`)
		if fam != name+"_bucket" || i < 0 {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(labels[i+4:], `"}`), 64)
		if err != nil || math.IsInf(bound, 1) {
			continue
		}
		id := labels[:i]
		if per[id] == nil {
			per[id] = map[float64]float64{}
		}
		per[id][bound] = v
	}
	// Per-bucket counts of the merged family.
	counts := map[float64]float64{}
	for _, cum := range per {
		bounds := make([]float64, 0, len(cum))
		for b := range cum {
			bounds = append(bounds, b)
		}
		sort.Float64s(bounds)
		prev := 0.0
		for _, b := range bounds {
			counts[b] += cum[b] - prev
			prev = cum[b]
		}
	}
	bounds := make([]float64, 0, len(counts))
	var total float64
	for b, c := range counts {
		bounds = append(bounds, b)
		total += c
	}
	sort.Float64s(bounds)
	var acc float64
	for _, b := range bounds {
		c := counts[b]
		if c > 0 && acc+c >= q*total {
			lo := b - bucketWidth(b)
			return lo + (b-lo)*(q*total-acc)/c
		}
		acc += c
	}
	return math.NaN()
}

// bucketWidth returns the width in seconds of the metrics histogram bucket
// whose upper bound is b: upper bounds are (17+sub)<<e µs with sub < 16, and
// such a bucket is 1<<e µs wide.
func bucketWidth(b float64) float64 {
	us := int64(math.Round(b * 1e6))
	e := 0
	for us>>e > 32 {
		e++
	}
	return float64(int64(1)<<e) * 1e-6
}
