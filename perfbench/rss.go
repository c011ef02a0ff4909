package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// rssEvery is how often the sampler reads the resident set size. The peak
// heap of a GC cycle lasts for its mark phase, a millisecond or more.
const rssEvery = time.Millisecond

// rssSampler tracks the process's peak resident memory between resets.
//
// getrusage's peak only grows over a process's life, so the one GC cycle
// in a run that overshoots most would set the figure for the whole run.
// Sampling instead gives a peak per repetition of a leg's unit of work, and
// a run reports the median of those.
type rssSampler struct {
	f    *os.File
	page int64
	peak atomic.Int64 // bytes
	stop chan struct{}
	done chan struct{}
}

// rss samples the untraced pass of a run; it is nil in traced runs, where
// no memory figure is reported.
var rss *rssSampler

func startRSS() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, page: int64(os.Getpagesize()), stop: make(chan struct{}), done: make(chan struct{})}
	if _, err := s.read(); err != nil {
		f.Close()
		return nil, err
	}
	s.reset()
	go s.loop()
	return s, nil
}

// read returns the current resident set size in bytes: the second field of
// statm, in pages.
func (s *rssSampler) read() (int64, error) {
	var buf [128]byte
	n, err := s.f.ReadAt(buf[:], 0)
	if n == 0 {
		return 0, err
	}
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return 0, fmt.Errorf("statm: unexpected content %q", buf[:n])
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	return pages * s.page, err
}

// sample folds the current resident set size into the peak.
func (s *rssSampler) sample() {
	v, err := s.read()
	if err != nil {
		return
	}
	for {
		old := s.peak.Load()
		if v <= old || s.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (s *rssSampler) loop() {
	defer close(s.done)
	tick := time.NewTicker(rssEvery)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
			s.sample()
		}
	}
}

// reset starts a new peak from the current resident set size.
func (s *rssSampler) reset() {
	if s == nil {
		return
	}
	if v, err := s.read(); err == nil {
		s.peak.Store(v)
	}
}

// peakMB returns the peak since the last reset, in MiB.
func (s *rssSampler) peakMB() float64 {
	if s == nil {
		return math.NaN()
	}
	s.sample()
	return float64(s.peak.Load()) / (1 << 20)
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
	s.f.Close()
}

// beginRep starts a repetition of a leg's unit of work from a collected
// heap whose free pages are returned to the OS, so that neither the previous
// repetition's garbage nor its resident pages count against this one.
func beginRep() {
	debug.FreeOSMemory()
	rss.reset()
}

// endRep records the repetition's peak resident memory in an untraced run.
func endRep(res *legResult) {
	if rss != nil {
		res.rssMB = append(res.rssMB, rss.peakMB())
	}
}
