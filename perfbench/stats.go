package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p99 from fewer than 1000 samples is not reported.
const minTail = 10

// nearestRank returns the p-quantile (0 < p <= 1) of ascending samples by
// the nearest-rank rule: the sample at rank ceil(p*n).
func nearestRank(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// tailSupported reports whether at least minTail of n samples lie beyond
// the nearest rank of p.
func tailSupported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= minTail
}

// median of xs (mean of the middle two for an even count); NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rssSampler records the peak resident set size while it runs, read
// from /proc/self/statm every few milliseconds.
type rssSampler struct {
	stop, done chan struct{}
	peak       float64 // bytes
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	page := float64(os.Getpagesize())
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					if pages, err := strconv.ParseFloat(f[1], 64); err == nil && pages*page > s.peak {
						s.peak = pages * page
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MiB; where statm is
// unavailable, the process's lifetime peak from getrusage.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	if s.peak > 0 {
		return s.peak / (1 << 20)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtStat is a snapshot of the runtime counters a stage is charged with.
type rtStat struct {
	allocBytes, allocObjs, gcCPU float64
	at                           time.Time
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRT() rtStat {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtStat{v(0), v(1), v(2), time.Now()}
}

// layers collects per-layer metric values and the spans they came from.
// Spans are recorded only by the benchmark, around calls into the
// program's packages, and kept in memory until the run ends.
type layers struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	vals  map[string]float64
}

type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func newLayers() *layers {
	return &layers{t0: time.Now(), vals: map[string]float64{}}
}

// begin opens a span under parent (0: root) and returns its id.
func (l *layers) begin(name string, parent int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartUS: float64(time.Since(l.t0).Nanoseconds()) / 1e3,
	})
	return len(l.spans)
}

// end closes span id and returns its duration in seconds.
func (l *layers) end(id int) float64 {
	now := float64(time.Since(l.t0).Nanoseconds()) / 1e3
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.EndUS = now
	return (s.EndUS - s.StartUS) / 1e6
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.vals[name] += v
	l.mu.Unlock()
}

// stage charges the runtime counters accumulated since before to stage.
func (l *layers) stage(name string, before rtStat) {
	after := readRT()
	l.add(name+".alloc_mb", (after.allocBytes-before.allocBytes)/(1<<20))
	l.add(name+".allocs", after.allocObjs-before.allocObjs)
	l.add(name+".gc_cpu_s", after.gcCPU-before.gcCPU)
	l.add(name+".cpu_s", after.at.Sub(before.at).Seconds()*float64(runtime.GOMAXPROCS(0)))
}

// finishStages turns accumulated per-stage GC CPU time into a share of
// the CPU time available to the stage (wall time times GOMAXPROCS). The
// runtime updates its GC CPU estimate when a cycle ends.
func (l *layers) finishStages() {
	for _, st := range stages {
		gc, avail := l.vals[st+".gc_cpu_s"], l.vals[st+".cpu_s"]
		delete(l.vals, st+".gc_cpu_s")
		delete(l.vals, st+".cpu_s")
		l.vals[st+".gc_share"] = 0
		if avail > 0 {
			l.vals[st+".gc_share"] = gc / avail
		}
	}
}

// writeSpans saves the recorded spans as JSON under dir.
func (l *layers) writeSpans(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
