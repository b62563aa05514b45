// Command perfbench is the repository's benchmark: it runs the
// reproduction pipeline (generate, ANALYZE, plan, execute, train, figures)
// and the /predict serving path end to end, checks their outputs, and
// reports end-to-end metrics (untraced run) or per-layer metrics (traced
// run). It drives the program only through its public functions; every
// span is recorded here, around those calls.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload repro-exec --seed 1 --seconds 16 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are the
// human-readable report (stamp, metrics with units, check verdicts).
// The exit code is non-zero when a check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workers is the load the benchmark puts on the box: execution workers,
// and closed-loop callers on the serving path. It matches the 2-core
// machine the baselines are taken on.
const workers = 2

// spec is one workload. Every workload runs the whole lifecycle — set up
// a served snapshot, run the reproduction pipeline, serve /predict — but
// each spends its time on a different part of it.
type spec struct {
	name string
	pipe pipeConfig
	// fixedPipeSeed, when set, runs the pipeline on that seed instead of
	// the workload seed (serve-mix's inputs are its requests).
	fixedPipeSeed bool
	// window is the serving time that follows each pipeline run.
	window time.Duration
	// dominant names the layer group predicted to carry the workload.
	dominant string
	serving
}

// serving is the set-up every workload shares: the served snapshot (the
// bench.sh serving config), the request pool, and how many times the
// set-up is repeated to report its median.
type serving struct {
	snap     snapConfig
	poolSize int
	setups   int
	warmup   time.Duration
}

var defaultServing = serving{snap: snapConfig{0.01, 10}, poolSize: 720, setups: 3, warmup: 500 * time.Millisecond}

var specs = []spec{
	{
		// Exec-heavy: few large queries, so hash join, sort and GC in the
		// executor carry the pipeline.
		name: "repro-exec", pipe: pipeConfig{LargeSF: 0.015, SmallSF: 0.004, PerTemplate: 5},
		window:  4 * time.Second,
		serving: defaultServing, dominant: "exec",
	},
	{
		// Training-heavy: many small queries; SVR, feature selection,
		// Algorithm 1 and the online models carry the pipeline.
		name: "repro-train", pipe: pipeConfig{LargeSF: 0.004, SmallSF: 0.002, PerTemplate: 10},
		window:  4 * time.Second,
		serving: defaultServing, dominant: "qpp/experiments",
	},
	{
		// Serving-heavy: a toy pipeline on the snapshot's own seed, then
		// a long window of two closed-loop callers; plan cache,
		// optimizer, model prediction and HTTP/JSON carry it, and no
		// query executes on the request path.
		name: "serve-mix", pipe: pipeConfig{LargeSF: 0.002, SmallSF: 0.001, PerTemplate: 4}, fixedPipeSeed: true,
		window:  4 * time.Second,
		serving: defaultServing, dominant: "plancache/serve/qpp-predict",
	},
}

// endToEnd and perLayer list the reported metrics; BENCHMARK.json names
// the same ones in the same order.
var endToEnd = []string{"setup_s", "pipeline_s", "op_mre", "hybrid_mre", "online_mre",
	"predict_p50_ms", "predict_p99_ms", "predict_rps", "peak_rss_mb"}

var stages = []string{"gen", "build", "train", "cv", "load"}

func perLayer() []string {
	names := []string{"tpch.generate_s", "tpch.rows", "catalog.analyze_s",
		"opt.plan_s", "opt.plan_us", "opt.plan_miss_us",
		"exec.run_s", "exec.queries", "exec.timeouts", "exec.errors", "exec.worker_idle_share", "exec.virtual_s",
		"exec.serve_samples",
		"qpp.train_plan_s", "qpp.train_op_s", "qpp.train_hybrid_s", "qpp.train_baseline_s",
		"experiments.fig5_s", "experiments.fig6_s", "experiments.fig8_s", "experiments.fig9_s", "experiments.plan_mre",
		"plancache.memo_share", "plancache.rebind_share", "plancache.miss_share", "plancache.fallback_share",
		"plancache.memo_us", "plancache.rebind_us", "plancache.miss_us", "plancache.build_s",
		"qpp.predict_plan_us", "qpp.predict_op_us", "qpp.predict_hybrid_us", "qpp.features_us", "qpp.skipped_share",
		"serve.handler_us", "serve.codec_us", "serve.roundtrip_us", "net.http_us",
		"trace_overhead_share"}
	for _, t := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 19, 22} {
		names = append(names, fmt.Sprintf("exec.t%d_ms", t))
	}
	for _, st := range stages {
		names = append(names, st+".alloc_mb", st+".allocs", st+".gc_share")
	}
	return names
}

// unitOf derives a metric's unit from its name suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_rps"):
		return "1/s"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_mre"):
		return "ratio"
	}
	return "count"
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	checks            []check
	notes             []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return r.failed == 0
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func main() {
	name := flag.String("workload", "", "workload: repro-exec, repro-train, serve-mix, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seed2 := flag.Int64("seed2", 0, "optional second workload seed; the run is repeated on it and both must pass")
	seconds := flag.Float64("seconds", 16, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	runs := specs
	if *name != "all" {
		sp, ok := findSpec(*name)
		runs = []spec{sp}
		if !ok {
			runs = nil
		}
	}
	if len(runs) == 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload repro-exec|repro-train|serve-mix|all, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	seeds := []int64{*seed}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed2" {
			seeds = append(seeds, *seed2)
		}
	})
	names := endToEnd
	if *trace == 1 {
		names = perLayer()
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, sp := range runs {
		for i, sd := range seeds {
			fmt.Println(stamp(sp.name, sd, *trace))
			run := runUntraced
			if *trace == 1 {
				run = runTraced
			}
			r, err := run(sp, sd, *seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", sp.name, sd, err)
				os.Exit(1)
			}
			report(r, names)
			out.Correct = out.Correct && r.correct()
			out.Attempted += r.attempted
			out.Failed += r.failed
			if i > 0 {
				continue // the metrics are those of the first seed
			}
			for _, n := range names {
				v := r.metrics[n]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = -1 // JSON has no NaN; the failed check already explains it
					out.Correct = false
				}
				key := n
				if len(runs) > 1 {
					key = sp.name + "." + n
				}
				out.Metrics[key] = metric{v, unitOf(n)}
			}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}

// stamp describes where and on what a result was measured.
func stamp(workload string, seed int64, trace int) string {
	return fmt.Sprintf("# perfbench workload=%s seed=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s commit=%s workers=%d",
		workload, seed, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit(), workers)
}

// gitCommit reads the checked-out commit from .git in the working
// directory, without running git; "unknown" outside a git checkout.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

func report(r *result, names []string) {
	for _, n := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", n, r.metrics[n], unitOf(n))
	}
	for _, c := range r.checks {
		verdict := "PASS"
		if !c.ok {
			verdict = "FAIL"
		}
		fmt.Printf("check %-22s %s %s\n", c.name, verdict, c.detail)
	}
	for _, n := range r.notes {
		fmt.Println("note", n)
	}
}

// setup starts sp.setups servers one after another, timing each from
// snapshot training to the end of its warm-up, and keeps the last.
func setup(sp spec, seed int64) (*server, *requestPool, []float64, error) {
	var (
		srv   *server
		pool  *requestPool
		times []float64
	)
	for k := 0; k < sp.setups; k++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startServer(sp.snap); err != nil {
			return nil, nil, nil, err
		}
		if pool == nil {
			if pool, err = newRequestPool(srv, seed, sp.poolSize); err != nil {
				srv.stop()
				return nil, nil, nil, err
			}
		}
		if w := closedLoop(srv, pool, sp.warmup, nil); w.failed > 0 {
			srv.stop()
			return nil, nil, nil, fmt.Errorf("warm-up: %d of %d requests failed", w.failed, w.sent)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return srv, pool, times, nil
}

func pipeSeed(sp spec, seed int64) int64 {
	if sp.fixedPipeSeed {
		return snapSeed
	}
	return seed
}

// runUntraced measures the end-to-end metrics: after set-up, rounds of
// one pipeline and one serving window until the run's seconds are
// spent. Each metric is the median over rounds, which keeps a slow
// stretch of a shared machine from moving it.
func runUntraced(sp spec, seed int64, seconds float64) (res *result, err error) {
	r := &result{metrics: map[string]float64{}}
	srv, pool, setups, err := setup(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	r.metrics["setup_s"] = median(setups)
	runtime.GC()

	cfg := expConfig(sp.pipe, pipeSeed(sp, seed))
	start := time.Now()
	var (
		walls, peaks []float64
		wins         []*loopResult
		firstOut     *pipeOut
		repeatOK     = true
	)
	for len(walls) == 0 || time.Since(start).Seconds() < seconds {
		// Return the previous round's memory to the OS so that each
		// round's peak is its own.
		debug.FreeOSMemory()
		rss := startRSS()
		out, err := runPipeline(cfg)
		if err != nil {
			rss.finish()
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		r.attempted += out.queries
		walls = append(walls, out.wall)
		if firstOut == nil {
			firstOut = out
		} else if out.digest != firstOut.digest {
			repeatOK = false
		}
		runtime.GC()
		w, err := window(srv, pool, sp.window, nil)
		if err != nil {
			rss.finish()
			return nil, err
		}
		wins = append(wins, w)
		peaks = append(peaks, rss.finish())
	}
	r.check("pipeline-repeat", repeatOK, "%d rounds, first digest %s, walls %.3f", len(walls), firstOut.digest, walls)
	pipelineResults(r, firstOut)
	r.metrics["pipeline_s"] = median(walls)
	if err := serveResults(r, srv, pool, wins); err != nil {
		return nil, err
	}
	r.metrics["peak_rss_mb"] = median(peaks)
	return r, nil
}

// pipelineResults records a pipeline's accuracy and checks it is finite.
func pipelineResults(r *result, out *pipeOut) {
	r.metrics["op_mre"] = out.mre.op
	r.metrics["hybrid_mre"] = out.mre.hybrid
	r.metrics["online_mre"] = out.mre.online
	r.metrics["experiments.plan_mre"] = out.mre.plan
	r.check("mre-finite", out.mre.finite(), "plan %.4g op %.4g hybrid %.4g online %.4g",
		out.mre.plan, out.mre.op, out.mre.hybrid, out.mre.online)
}

// window runs the closed loop for d between two /metrics scrapes.
func window(srv *server, pool *requestPool, d time.Duration, l *layers) (*loopResult, error) {
	before, err := scrapeCache(srv)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	lr := closedLoop(srv, pool, d, l)
	after, err := scrapeCache(srv)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	for k, v := range after {
		lr.cache[k] = v - before[k]
	}
	return lr, nil
}

// serveResults fills the predict_* metrics as medians over the windows
// and checks every answer: status 200, the snapshot's model version, the
// same bits for the same text, the same bits as direct calls, and
// plan-cache counters that agree with the request labels.
func serveResults(r *result, srv *server, pool *requestPool, wins []*loopResult) error {
	var p50s, p99s, rpss []float64
	all := newLoopResult()
	supported := true
	for _, w := range wins {
		p50s = append(p50s, nearestRank(w.latMS, 0.50))
		p99s = append(p99s, nearestRank(w.latMS, 0.99))
		rpss = append(rpss, float64(w.sent)/w.wall)
		supported = supported && tailSupported(len(w.latMS), 0.99)
		all.merge(w)
	}
	r.attempted += all.sent
	r.failed += all.failed
	r.metrics["predict_p50_ms"] = median(p50s)
	r.metrics["predict_p99_ms"] = median(p99s)
	r.metrics["predict_rps"] = median(rpss)
	r.check("p99-support", supported, "every window has >= %d samples beyond its p99", minTail)
	r.check("answers-200", all.failed == 0, "%d of %d requests failed", all.failed, all.sent)
	r.check("model-version", all.badVersion == 0, "%d answers not from %s", all.badVersion, srv.snap.Version)
	r.check("answers-stable", all.mismatches == 0, "%d answers differ from an earlier answer for the same text", all.mismatches)
	bad, err := checkAnswers(srv, pool, all.got)
	if err != nil {
		return fmt.Errorf("direct predictions: %w", err)
	}
	r.check("answers-direct", bad == 0, "%d of %d distinct texts differ from direct Cache.Plan+Predict calls", bad, len(all.got))
	hits, misses, fallbacks := all.cache["plancache.hit"], all.cache["plancache.miss"], all.cache["plancache.selector_fallback"]
	memo, rebind, miss := all.labels[labelMemo], all.labels[labelRebind], all.labels[labelMiss]
	r.check("cache-labels", int(hits) == memo+rebind && int(misses) == miss,
		"labels memo %d rebind %d miss %d; /metrics hit %g miss %g selector_fallback %g", memo, rebind, miss, hits, misses, fallbacks)
	sent := float64(all.sent)
	r.metrics["plancache.memo_share"] = float64(memo) / sent
	r.metrics["plancache.rebind_share"] = float64(rebind) / sent
	r.metrics["plancache.miss_share"] = float64(miss) / sent
	if hits > 0 {
		r.metrics["plancache.fallback_share"] = fallbacks / hits
	}
	r.notes = append(r.notes, fmt.Sprintf("predict latency: median over %d windows of %d samples in all; %d closed-loop callers in the server's process; per-window rps %.0f",
		len(wins), len(all.latMS), workers, rpss))
	return nil
}

// runTraced measures the per-layer metrics: one untraced and one traced
// pipeline (same digest required), an untraced and a traced serving
// window, then per-call timings of each request-path layer.
func runTraced(sp spec, seed int64, seconds float64) (res *result, err error) {
	r := &result{metrics: map[string]float64{}}
	l := newLayers()
	sp.setups = 1
	srv, pool, _, err := setup(sp, seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if serr := srv.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	runtime.GC()

	cfg := expConfig(sp.pipe, pipeSeed(sp, seed))
	u, err := runPipeline(cfg)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	runtime.GC()
	t, err := runPipelineTraced(l, cfg)
	if err != nil {
		return nil, fmt.Errorf("traced pipeline: %w", err)
	}
	r.attempted += u.queries + t.queries
	r.check("same-work", u.digest == t.digest && u.mre == t.mre, "untraced digest %s, traced %s", u.digest, t.digest)
	pipelineResults(r, t)
	dominance := pipelineDominance(l.vals)
	finishPipelineLayers(l)
	runtime.GC()

	// The two serving windows share what is left of the run's seconds.
	d := time.Duration((seconds - u.wall - t.wall) / 2 * float64(time.Second))
	if d < sp.window {
		d = sp.window
	}
	wu, err := window(srv, pool, d, nil)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	before := readRT()
	sampler := startExecSampler(10 * time.Millisecond)
	wt, err := window(srv, pool, d, l)
	reqSamples, execSamples := sampler.finish()
	if err != nil {
		return nil, err
	}
	l.stage("load", before)
	if err := serveResults(r, srv, pool, []*loopResult{wu, wt}); err != nil {
		return nil, err
	}
	l.vals["exec.serve_samples"] = float64(execSamples)
	if err := measureServeLayers(l, srv, pool); err != nil {
		return nil, fmt.Errorf("serve layers: %w", err)
	}
	l.finishStages()

	// Overhead: the time the untraced work takes when traced, relative
	// to untraced — the pipeline plus the untraced window's requests
	// served at the traced window's rate.
	base := u.wall + wu.wall
	withTrace := t.wall + float64(wu.sent)/(float64(wt.sent)/wt.wall)
	l.vals["trace_overhead_share"] = (withTrace - base) / base

	for k, v := range l.vals {
		r.metrics[k] = v
	}
	held := dominance == sp.dominant
	if sp.dominant == "plancache/serve/qpp-predict" {
		// The serving workload's claim is about the request path: no
		// query executes there, and serving takes most of each round.
		held = execSamples == 0 && reqSamples > 0 && sp.window.Seconds() > u.wall
	}
	r.notes = append(r.notes,
		fmt.Sprintf("dominant layer predicted %s, pipeline's largest %s; held=%v", sp.dominant, dominance, held),
		fmt.Sprintf("request-path stack samples %d, inside exec %d", reqSamples, execSamples),
		"load-stage runtime figures include the closed-loop client, which shares the server's process")
	if err := l.writeSpans(".bench_build/perfbench-spans", fmt.Sprintf("%s-seed%d.json", sp.name, seed)); err != nil {
		r.notes = append(r.notes, "spans not written: "+err.Error())
	}
	return r, nil
}

// pipelineDominance names the layer group that took the most wall time
// in the traced pipeline: generation+ANALYZE, plan+execute (busy time
// over the workers), or training and figures.
func pipelineDominance(v map[string]float64) string {
	groups := map[string]float64{
		"tpch/catalog":    v["tpch.generate_s"] + v["catalog.analyze_s"],
		"exec":            (v["opt.plan_s"] + v["exec.run_s"]) / workers,
		"qpp/experiments": v["qpp.train_plan_s"] + v["qpp.train_op_s"] + v["qpp.train_hybrid_s"] + v["qpp.train_baseline_s"] + v["experiments.fig5_s"] + v["experiments.fig6_s"] + v["experiments.fig8_s"] + v["experiments.fig9_s"],
	}
	best := ""
	for _, k := range sortedKeys(groups) {
		if best == "" || groups[k] > groups[best] {
			best = k
		}
	}
	return best
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
