package main

import (
	"fmt"
	"os"
	"time"
)

// leg is one stack's share of a run: its inputs are built by setup, and run
// measures it untraced (end-to-end metrics) or traced (per-layer metrics).
type leg interface {
	name() string
	setup() error
	// run measures the leg, repeating its unit of work (a sweep batch, a
	// planner loop, a serving pass) at least the leg's least number of times
	// and then while the budget lasts.
	run(budget time.Duration, traced bool) (*legResult, error)
	close()
}

// legResult is what one pass of a leg measured and checked.
type legResult struct {
	attempted, failed int
	e2e               map[string]float64
	layers            map[string]float64
	// opWall holds wall time per operation (ns) for each repetition; the
	// tracing overhead compares its median between the two passes.
	opWall []float64
	// rssMB holds each repetition's peak resident memory (untraced only).
	rssMB    []float64
	problems []string
	spans    []span
}

func newLegResult() *legResult {
	return &legResult{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *legResult) problem(msg string) { r.problems = append(r.problems, msg) }

// logf writes a progress line to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// tailValue returns the tail percentile of sorted, noting on stderr when
// too few samples forced a lower percentile than want.
func tailValue(name string, s []float64, want float64) float64 {
	p, v := tail(s, want)
	if p != want {
		logf("%s: %d samples, reporting p%g", name, len(s), p)
	}
	return v
}
