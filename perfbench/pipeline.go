package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"qpp/internal/catalog"
	"qpp/internal/exec"
	"qpp/internal/experiments"
	"qpp/internal/opt"
	"qpp/internal/qpp"
	"qpp/internal/tpch"
	"qpp/internal/vclock"
	"qpp/internal/workload"
)

// pipeConfig sizes one run of the reproduction pipeline: build both
// datasets, train the final models on Large, then Figures 5, 6, 8 and 9.
type pipeConfig struct {
	LargeSF, SmallSF float64
	PerTemplate      int
}

// pipeOut is what one pipeline run produced.
type pipeOut struct {
	wall float64 // seconds from BuildEnv through Fig9
	// digest covers (template, virtual latency, estimated cost) of every
	// record of both datasets, plus every figure error reported.
	digest  string
	mre     mres
	queries int // queries attempted (executed or timed out)
}

// mres are the pipeline's accuracy results: Fig6 CV plan- and
// operator-level MRE on Large, Fig9 hybrid (error-based) and online MRE.
type mres struct{ plan, op, hybrid, online float64 }

func (m mres) finite() bool {
	for _, v := range []float64{m.plan, m.op, m.hybrid, m.online} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func expConfig(pc pipeConfig, seed int64) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.LargeSF, cfg.SmallSF, cfg.PerTemplate = pc.LargeSF, pc.SmallSF, pc.PerTemplate
	cfg.Seed = seed
	cfg.Parallelism = workers
	return cfg
}

// runPipeline is the untraced pipeline, driven through experiments.BuildEnv.
func runPipeline(cfg experiments.Config) (*pipeOut, error) {
	t0 := time.Now()
	env, err := experiments.BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	if err := trainFinal(nil, 0, env.Large.Records); err != nil {
		return nil, err
	}
	out, err := figures(nil, 0, env)
	if err != nil {
		return nil, err
	}
	out.wall = time.Since(t0).Seconds()
	out.queries = 2 * len(tpch.Templates) * cfg.PerTemplate
	return out, nil
}

// runPipelineTraced does the same work as runPipeline, but builds the
// datasets from the layers' public calls (tpch.Generate, a repeated
// catalog.AnalyzeRowsSketch, opt.PlanSQL, exec.Run) so that each layer
// can be timed. Its digest must equal the untraced run's.
func runPipelineTraced(l *layers, cfg experiments.Config) (*pipeOut, error) {
	t0 := time.Now()
	root := l.begin("pipeline", 0)
	large, err := buildDataset(l, root, cfg.LargeSF, cfg.PerTemplate, cfg.Seed, cfg.TimeLimit)
	if err != nil {
		return nil, fmt.Errorf("large dataset: %w", err)
	}
	small, err := buildDataset(l, root, cfg.SmallSF, cfg.PerTemplate, cfg.Seed+1000, cfg.TimeLimit)
	if err != nil {
		return nil, fmt.Errorf("small dataset: %w", err)
	}
	env := &experiments.Env{Cfg: cfg, Large: large, Small: small}
	before := readRT()
	if err := trainFinal(l, root, env.Large.Records); err != nil {
		return nil, err
	}
	l.stage("train", before)
	before = readRT()
	out, err := figures(l, root, env)
	if err != nil {
		return nil, err
	}
	l.stage("cv", before)
	l.end(root)
	out.wall = time.Since(t0).Seconds()
	out.queries = 2 * len(tpch.Templates) * cfg.PerTemplate
	return out, nil
}

// timed runs fn inside a span named name and adds its duration to the
// layer metric name+"_s". A nil l runs fn untimed.
func timed(l *layers, name string, parent int, fn func() error) error {
	if l == nil {
		return fn()
	}
	id := l.begin(name, parent)
	err := fn()
	l.add(name+"_s", l.end(id))
	return err
}

// trainFinal fits the final models on Large the way cmd/qpptrain does.
func trainFinal(l *layers, parent int, recs []*qpp.QueryRecord) error {
	opRecs := workload.FilterTemplates(recs, tpch.OperatorLevelTemplates)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"qpp.train_plan", func() error {
			_, err := qpp.TrainPlanLevel(recs, qpp.FeatEstimates, qpp.DefaultPlanModelConfig())
			return err
		}},
		{"qpp.train_op", func() error {
			_, err := qpp.TrainOperatorModels(opRecs, qpp.FeatEstimates, qpp.OpModelConfig())
			return err
		}},
		{"qpp.train_hybrid", func() error {
			_, _, err := qpp.TrainHybrid(opRecs, qpp.DefaultHybridConfig(qpp.ErrorBased))
			return err
		}},
		{"qpp.train_baseline", func() error {
			_, err := qpp.TrainCostBaseline(recs)
			return err
		}},
	}
	for _, s := range steps {
		if err := timed(l, s.name, parent, s.fn); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// figures runs Figures 5, 6, 8 and 9 and digests their inputs and errors.
func figures(l *layers, parent int, env *experiments.Env) (*pipeOut, error) {
	var (
		f5 *experiments.Fig5Result
		f6 *experiments.Fig6Result
		f8 *experiments.Fig8Result
		f9 *experiments.Fig9Result
	)
	steps := []struct {
		name string
		fn   func() error
	}{
		{"experiments.fig5", func() (err error) { f5, err = experiments.Fig5(env); return }},
		{"experiments.fig6", func() (err error) { f6, err = experiments.Fig6(env); return }},
		{"experiments.fig8", func() (err error) { f8, err = experiments.Fig8(env); return }},
		{"experiments.fig9", func() (err error) { f9, err = experiments.Fig9(env); return }},
	}
	for _, s := range steps {
		if err := timed(l, s.name, parent, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	out := &pipeOut{mre: mres{f6.PlanLargeMean, f6.OpLargeMean, f9.ErrMean, f9.OnlineMean}}
	h := sha256.New()
	put := func(f float64) { binary.Write(h, binary.LittleEndian, math.Float64bits(f)) }
	for _, ds := range []*workload.Dataset{env.Large, env.Small} {
		for _, r := range ds.Records {
			binary.Write(h, binary.LittleEndian, int64(r.Template))
			put(r.Time)
			put(r.Root.Est.TotalCost)
		}
	}
	for _, f := range []float64{f5.MeanRel, f6.PlanLargeMean, f6.PlanSmallMean, f6.OpLargeMean, f6.OpSmallMean,
		f9.PlanMean, f9.OpMean, f9.ErrMean, f9.SizeMean, f9.OnlineMean} {
		put(f)
	}
	for _, name := range sortedKeys(f8.ModelsAccepted) {
		put(float64(f8.ModelsAccepted[name]))
	}
	out.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return out, nil
}

// buildDataset is workload.Build for one dataset, assembled from the
// layers' public calls with a span around each: generate, ANALYZE (run
// again on the generated rows, since tpch.Generate analyzes while
// loading), then plan and execute every query cold on `workers`
// goroutines. Query texts and per-query noise seeds are drawn exactly as
// workload.Build draws them, which the digest check relies on.
func buildDataset(l *layers, parent int, sf float64, perTemplate int, seed int64, timeLimit float64) (*workload.Dataset, error) {
	before := readRT()
	ds := &workload.Dataset{TimedOut: map[int]int{}}
	err := timed(l, "tpch.generate", parent, func() (err error) {
		ds.DB, err = tpch.Generate(tpch.GenConfig{ScaleFactor: sf, Seed: seed})
		return
	})
	if err != nil {
		return nil, err
	}
	id := l.begin("catalog.analyze", parent)
	rows := 0
	for _, name := range ds.DB.Schema.TableNames() {
		t := ds.DB.Tables[name]
		catalog.AnalyzeRowsSketch(t.Meta, t.Rows)
		rows += len(t.Rows)
	}
	l.add("catalog.analyze_s", l.end(id))
	l.add("tpch.rows", float64(rows))
	l.stage("gen", before)

	before = readRT()
	queries, err := tpch.GenWorkload(tpch.Templates, perTemplate, seed+1)
	if err != nil {
		return nil, err
	}
	noise := rand.New(rand.NewSource(seed + 2))
	seeds := make([]int64, len(queries))
	for i := range seeds {
		seeds[i] = noise.Int63()
	}
	recs := make([]*qpp.QueryRecord, len(queries))
	errs := make([]error, len(queries))
	planS := make([]float64, len(queries))
	execS := make([]float64, len(queries))
	timedOut := make([]bool, len(queries))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(queries) {
					return
				}
				q := queries[i]
				ps := l.begin("opt.plan", parent)
				node, err := opt.PlanSQL(ds.DB, q.SQL)
				planS[i] = l.end(ps)
				if err != nil {
					errs[i] = fmt.Errorf("plan: %w", err)
					continue
				}
				es := l.begin("exec.run", parent)
				res, err := exec.Run(ds.DB, node, vclock.NewClock(vclock.DefaultProfile(), seeds[i]), exec.Options{TimeLimit: timeLimit})
				execS[i] = l.end(es)
				switch {
				case errors.Is(err, exec.ErrTimeout):
					timedOut[i] = true
				case err != nil:
					errs[i] = err
				default:
					recs[i] = &qpp.QueryRecord{Template: q.Template, SQL: q.SQL, Root: node, Time: res.Elapsed}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	l.stage("build", before)

	var busy float64
	nErr := 0
	for i, q := range queries {
		busy += planS[i] + execS[i]
		l.add("opt.plan_s", planS[i])
		l.add("exec.run_s", execS[i])
		l.add(fmt.Sprintf("exec.t%d_ms", q.Template), execS[i]*1e3)
		l.add(fmt.Sprintf("exec.t%d_n", q.Template), 1)
		switch {
		case errs[i] != nil:
			nErr++
		case timedOut[i]:
			ds.TimedOut[q.Template]++
		default:
			ds.Records = append(ds.Records, recs[i])
			l.add("exec.virtual_s", recs[i].Time)
		}
	}
	l.add("exec.queries", float64(len(queries)))
	l.add("exec.errors", float64(nErr))
	l.add("exec.timeouts", float64(len(queries)-len(ds.Records)-nErr))
	l.add("exec.busy_s", busy)
	l.add("exec.wall_s", wall)
	if nErr > 0 {
		return nil, fmt.Errorf("%d queries failed: %w", nErr, errors.Join(errs...))
	}
	return ds, nil
}

// finishPipelineLayers turns the pipeline's accumulated sums into the
// reported per-query and share metrics.
func finishPipelineLayers(l *layers) {
	v := l.vals
	if n := v["exec.queries"]; n > 0 {
		v["opt.plan_us"] = v["opt.plan_s"] / n * 1e6
	}
	if w := v["exec.wall_s"]; w > 0 {
		v["exec.worker_idle_share"] = 1 - v["exec.busy_s"]/(w*workers)
	}
	delete(v, "exec.busy_s")
	delete(v, "exec.wall_s")
	for _, t := range tpch.Templates {
		key := fmt.Sprintf("exec.t%d_", t)
		if n := v[key+"n"]; n > 0 {
			v[key+"ms"] /= n
		}
		delete(v, key+"n")
	}
}
