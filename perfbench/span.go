package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	name       string
	op         int64 // id of the cell, round or request the span belongs to
	parent     int32 // index of the parent span in the same tracer; -1 = root
	start, end int64
}

// tracer keeps spans in memory. It is safe for concurrent use; code that
// nests spans on one goroutine uses a nest on top of it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op int64, parent int32) int32 {
	s := span{name: name, op: op, parent: parent, start: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) time.Duration {
	e := t.now()
	t.mu.Lock()
	t.spans[i].end = e
	d := time.Duration(e - t.spans[i].start)
	t.mu.Unlock()
	return d
}

// add records an already measured span.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// nest tracks the open spans of one goroutine so each new span's parent is
// the innermost open one.
type nest struct {
	tr    *tracer
	op    int64
	stack []int32
}

func (n *nest) begin(name string) int32 {
	parent := int32(-1)
	if k := len(n.stack); k > 0 {
		parent = n.stack[k-1]
	}
	i := n.tr.begin(name, n.op, parent)
	n.stack = append(n.stack, i)
	return i
}

func (n *nest) end(i int32) time.Duration {
	n.stack = n.stack[:len(n.stack)-1]
	return n.tr.end(i)
}

// layerTimes aggregates spans by name: call count, total duration and self
// time, where self time is a span's duration minus the part of it that its
// children cover (overlapping children are counted once).
type layerTimes struct {
	calls      int
	total, own time.Duration
	durs       []float64 // per-span durations in ns, in record order
}

func selfTimes(spans []span) map[string]*layerTimes {
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]*layerTimes{}
	for i, s := range spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTimes{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.calls++
		lt.total += time.Duration(d)
		lt.own += time.Duration(d - covered(s.start, s.end, children[i]))
		lt.durs = append(lt.durs, float64(d))
	}
	return out
}

// covered returns how much of [lo, hi) the union of the intervals covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var sum int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			sum += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// writeSpans writes the spans as CSV (index, parent, op, name, start_ns,
// end_ns) to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,parent,op,name,start_ns,end_ns")
	for i, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", i, s.parent, s.op, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
