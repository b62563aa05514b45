package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.995, 100}} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("nearestRank(1..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g", got)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("empty input must give NaN")
	}
}

func TestTailSupport(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {100, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median %g", got)
	}
}

var toyPipe = pipeConfig{LargeSF: 0.002, SmallSF: 0.001, PerTemplate: 3}

// The traced pipeline rebuilds the datasets from layer calls; it must do
// exactly the work experiments.BuildEnv does, and the digest must tell
// different inputs apart.
func TestSameWork(t *testing.T) {
	cfg := expConfig(toyPipe, 5)
	u, err := runPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newLayers()
	tr, err := runPipelineTraced(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if u.digest != tr.digest || u.mre != tr.mre {
		t.Fatalf("traced pipeline differs: digest %s vs %s, mre %+v vs %+v", u.digest, tr.digest, u.mre, tr.mre)
	}
	if want := float64(2 * 18 * toyPipe.PerTemplate); l.vals["exec.queries"] != want {
		t.Errorf("exec.queries = %g, want %g", l.vals["exec.queries"], want)
	}
	other, err := runPipeline(expConfig(toyPipe, 6))
	if err != nil {
		t.Fatal(err)
	}
	if other.digest == u.digest {
		t.Error("different seeds gave the same digest")
	}
}

// Each workload at toy size, untraced and traced: every check passes and
// every metric is reported and finite.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	// Traced runs write their spans under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	}()
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			sp.pipe = toyPipe
			sp.serving = serving{snap: snapConfig{ScaleFactor: 0.002, PerTemplate: 3}, poolSize: 60, setups: 2, warmup: 100 * time.Millisecond}
			sp.window = 500 * time.Millisecond
			for trace, names := range [][]string{endToEnd, perLayer()} {
				run := runUntraced
				if trace == 1 {
					run = runTraced
				}
				r, err := run(sp, 3, 4)
				if err != nil {
					t.Fatalf("trace %d: %v", trace, err)
				}
				for _, c := range r.checks {
					if !c.ok {
						t.Errorf("trace %d: check %s failed: %s", trace, c.name, c.detail)
					}
				}
				for _, n := range names {
					v, ok := r.metrics[n]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("trace %d: metric %s = %v (present %v)", trace, n, v, ok)
					}
				}
				if r.attempted == 0 || r.failed != 0 {
					t.Errorf("trace %d: attempted %d failed %d", trace, r.attempted, r.failed)
				}
			}
		})
	}
}

// BENCHMARK.json must name exactly the metrics and workloads the command
// reports, with the units it reports them in.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Errorf("%d workloads listed, %d implemented", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if _, ok := findSpec(w.Name); !ok || i >= len(specs) {
			t.Errorf("workload %q not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		listed []m
		names  []string
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer()}} {
		if len(c.listed) != len(c.names) {
			t.Errorf("%d metrics listed, %d reported", len(c.listed), len(c.names))
			continue
		}
		for i, lm := range c.listed {
			if lm.Name != c.names[i] || lm.Unit != unitOf(c.names[i]) {
				t.Errorf("metric %d: listed %s (%s), reported %s (%s)", i, lm.Name, lm.Unit, c.names[i], unitOf(c.names[i]))
			}
		}
	}
}
