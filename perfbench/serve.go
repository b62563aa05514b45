package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"qpp/internal/opt"
	"qpp/internal/plancache"
	"qpp/internal/qpp"
	"qpp/internal/serve"
	"qpp/internal/storage"
	"qpp/internal/tpch"
)

// snapConfig is the served snapshot: the bench.sh serving config. Its
// seed is fixed so that every workload seed serves the same models.
type snapConfig struct {
	ScaleFactor float64
	PerTemplate int
}

const snapSeed = 42

// requestSeedOffset keeps request draws apart from the snapshot's own
// training draws (which use snapSeed+1).
const requestSeedOffset = 1_000_000

// Request labels: how the plan cache should serve a text, judged from
// outside. Memo: the text is in the snapshot's training set. Rebind: its
// template was trained. Miss: anything else.
const (
	labelMemo = iota
	labelRebind
	labelMiss
	nLabels
)

var labelNames = [nLabels]string{"memo", "rebind", "miss"}

// server is one in-process serve.Server on a loopback listener.
type server struct {
	snap   *serve.Snapshot
	db     *storage.Database
	srv    *serve.Server
	http   *http.Server
	url    string
	done   chan error
	client *http.Client
	// training is the snapshot's training workload, regenerated.
	training []tpch.Query
}

// startServer trains the snapshot, builds the server and starts it on a
// loopback port. The caller must stop it.
func startServer(cfg snapConfig) (*server, error) {
	snap, db, err := serve.TrainSnapshot(serve.TrainConfig{
		ScaleFactor: cfg.ScaleFactor, PerTemplate: cfg.PerTemplate, Seed: snapSeed,
		Strategy: qpp.ErrorBased, Parallelism: workers,
	})
	if err != nil {
		return nil, err
	}
	training, err := tpch.GenWorkload(tpch.OperatorLevelTemplates, cfg.PerTemplate, snapSeed+1)
	if err != nil {
		return nil, err
	}
	s := &server{snap: snap, db: db, srv: serve.New(db, snap, serve.Options{}), done: make(chan error, 1), training: training}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.url = "http://" + ln.Addr().String()
	s.http = &http.Server{Handler: s.srv, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.done <- s.http.Serve(ln) }()
	s.client = newClient()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// newClient returns a client that keeps one connection to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// requestPool draws n queries over all 18 templates from the workload
// seed and labels each for the snapshot s serves.
type requestPool struct {
	queries []tpch.Query
	bodies  [][]byte
	labels  []int
}

func newRequestPool(s *server, seed int64, n int) (*requestPool, error) {
	memo := map[string]bool{}
	trained := map[int]bool{}
	for _, q := range s.training {
		memo[q.SQL] = true
		trained[q.Template] = true
	}
	rng := rand.New(rand.NewSource(seed + requestSeedOffset))
	p := &requestPool{}
	for i := 0; i < n; i++ {
		q, err := tpch.GenQuery(tpch.Templates[rng.Intn(len(tpch.Templates))], rng)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.PredictRequest{SQL: q.SQL})
		if err != nil {
			return nil, err
		}
		label := labelMiss
		switch {
		case memo[q.SQL]:
			label = labelMemo
		case trained[q.Template]:
			label = labelRebind
		}
		p.queries = append(p.queries, q)
		p.bodies = append(p.bodies, body)
		p.labels = append(p.labels, label)
	}
	return p, nil
}

// loopResult is what the closed loop observed.
type loopResult struct {
	latMS  []float64
	sent   int
	failed int // transport errors and non-200 answers
	wall   float64
	labels [nLabels]int
	// got holds the first decoded answer per pool index; mismatches
	// counts later answers for the same text that differ from it, and
	// badVersion answers carrying another model version.
	got        map[int]*serve.PredictResult
	mismatches int
	badVersion int
	// cache holds the plan-cache counter deltas /metrics reported.
	cache map[string]float64
}

// closedLoop runs `workers` callers against s for d; each sends its next
// request only after the previous answer is read and decoded. With l
// set, every request is also recorded as a span.
func closedLoop(s *server, pool *requestPool, d time.Duration, l *layers) *loopResult {
	parts := make([]*loopResult, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			r := newLoopResult()
			r.latMS = make([]float64, 0, 1<<16)
			parts[w] = r
			for k := w * len(pool.bodies) / workers; time.Now().Before(deadline); k++ {
				i := k % len(pool.bodies)
				id := 0
				if l != nil {
					id = l.begin("client.predict."+labelNames[pool.labels[i]], 0)
				}
				t0 := time.Now()
				res, err := post(c, s.url+"/predict", pool.bodies[i])
				r.latMS = append(r.latMS, float64(time.Since(t0).Nanoseconds())/1e6)
				if l != nil {
					l.end(id)
				}
				r.sent++
				r.labels[pool.labels[i]]++
				if err != nil {
					r.failed++
					continue
				}
				if res.ModelVersion != s.snap.Version {
					r.badVersion++
				}
				if prev, ok := r.got[i]; !ok {
					r.got[i] = res
				} else if !samePrediction(prev, res) {
					r.mismatches++
				}
			}
		}(w)
	}
	wg.Wait()
	out := newLoopResult()
	for _, r := range parts {
		out.merge(r)
	}
	out.wall = time.Since(start).Seconds()
	sort.Float64s(out.latMS)
	return out
}

func newLoopResult() *loopResult {
	return &loopResult{got: map[int]*serve.PredictResult{}, cache: map[string]float64{}}
}

// merge adds b's observations to a.
func (a *loopResult) merge(b *loopResult) {
	a.latMS = append(a.latMS, b.latMS...)
	a.sent += b.sent
	a.failed += b.failed
	a.mismatches += b.mismatches
	a.badVersion += b.badVersion
	for i := range b.labels {
		a.labels[i] += b.labels[i]
	}
	for i, res := range b.got {
		if prev, ok := a.got[i]; !ok {
			a.got[i] = res
		} else if !samePrediction(prev, res) {
			a.mismatches++
		}
	}
	for _, k := range sortedKeys(b.cache) {
		a.cache[k] += b.cache[k]
	}
}

// post sends one /predict request and decodes a 200 answer.
func post(c *http.Client, url string, body []byte) (*serve.PredictResult, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	var res serve.PredictResult
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// samePrediction compares two answers bit for bit.
func samePrediction(a, b *serve.PredictResult) bool {
	if a.ModelVersion != b.ModelVersion || math.Float64bits(a.LatencySec) != math.Float64bits(b.LatencySec) ||
		len(a.Predictions) != len(b.Predictions) || len(a.Skipped) != len(b.Skipped) || a.Confidence != b.Confidence {
		return false
	}
	for k, v := range a.Predictions {
		w, ok := b.Predictions[k]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// directPredict computes, with direct calls on the snapshot's cache and
// models, the predictions /predict should answer for text. With l set,
// each call is timed into the plancache, opt and qpp layers.
func directPredict(l *layers, s *server, text string, label int) (map[string]float64, error) {
	snap := s.snap
	t0 := time.Now()
	node, _, err := snap.Cache.Plan(text)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	rec := &qpp.QueryRecord{SQL: text, Root: node}
	pred := map[string]float64{}
	pred["plan-level"] = snap.Plan.Predict(rec)
	t2 := time.Now()
	if snap.Baseline != nil {
		pred["cost-model"] = snap.Baseline.Predict(rec)
	}
	t3 := time.Now()
	op, opErr := snap.Hybrid.Ops.Predict(rec, qpp.ChildTimesPredicted)
	if opErr == nil {
		pred["operator-level"] = op
	}
	t4 := time.Now()
	hy, hyErr := snap.Hybrid.Predict(rec)
	if hyErr == nil {
		pred["hybrid"] = hy
	}
	t5 := time.Now()
	qpp.PlanFeatures(node, snap.Plan.Mode)
	t6 := time.Now()
	if l == nil {
		return pred, nil
	}
	us := func(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e3 }
	l.add("plancache."+labelNames[label]+"_us", us(t0, t1))
	l.add("plancache."+labelNames[label]+"_n", 1)
	l.add("qpp.predict_plan_us", us(t1, t2))
	l.add("qpp.predict_op_us", us(t3, t4))
	l.add("qpp.predict_hybrid_us", us(t4, t5))
	l.add("qpp.features_us", us(t5, t6))
	l.add("qpp.predict_n", 1)
	if opErr != nil || hyErr != nil {
		l.add("qpp.skipped", 1)
	}
	if label == labelMiss {
		// A miss is planned cold inside Plan; time that cold plan alone.
		t := time.Now()
		if _, err := opt.PlanSQL(s.db, text); err != nil {
			return nil, err
		}
		l.add("opt.plan_miss_us", us(t, time.Now()))
		l.add("opt.plan_miss_n", 1)
	}
	return pred, nil
}

// measureServeLayers times each layer of the request path on every pool
// text, one call at a time: the direct calls of directPredict, the
// handler into a recorder (no socket), the JSON codec, and a full HTTP
// round trip; then one rebuild of the plan cache.
func measureServeLayers(l *layers, s *server, pool *requestPool) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	for i, q := range pool.queries {
		if _, err := directPredict(l, s, q.SQL, pool.labels[i]); err != nil {
			return err
		}
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(pool.bodies[i]))
		t0 := time.Now()
		s.srv.ServeHTTP(rr, req)
		handler := time.Since(t0)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("handler: status %d for %q", rr.Code, q.SQL)
		}
		var res serve.PredictResult
		if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
			return err
		}
		t0 = time.Now()
		var req2 serve.PredictRequest
		if err := json.Unmarshal(pool.bodies[i], &req2); err != nil {
			return err
		}
		if _, err := json.Marshal(&res); err != nil {
			return err
		}
		codec := time.Since(t0)
		t0 = time.Now()
		if _, err := post(s.client, s.url+"/predict", pool.bodies[i]); err != nil {
			return err
		}
		rt := time.Since(t0)
		l.add("serve.handler_us", us(handler))
		l.add("serve.codec_us", us(codec))
		l.add("serve.roundtrip_us", us(rt))
	}
	n := float64(len(pool.queries))
	for _, k := range []string{"serve.handler_us", "serve.codec_us", "serve.roundtrip_us"} {
		l.vals[k] /= n
	}
	l.vals["net.http_us"] = l.vals["serve.roundtrip_us"] - l.vals["serve.handler_us"]
	for _, k := range []string{"plancache.memo", "plancache.rebind", "plancache.miss", "opt.plan_miss"} {
		if c := l.vals[k+"_n"]; c > 0 {
			l.vals[k+"_us"] /= c
		}
		delete(l.vals, k+"_n")
	}
	if c := l.vals["qpp.predict_n"]; c > 0 {
		for _, k := range []string{"qpp.predict_plan_us", "qpp.predict_op_us", "qpp.predict_hybrid_us", "qpp.features_us"} {
			l.vals[k] /= c
		}
		l.vals["qpp.skipped_share"] = l.vals["qpp.skipped"] / c
	}
	delete(l.vals, "qpp.predict_n")
	delete(l.vals, "qpp.skipped")

	texts := make([]string, len(s.training))
	for i, q := range s.training {
		texts[i] = q.SQL
	}
	return timed(l, "plancache.build", 0, func() error {
		_, err := plancache.Build(s.db, texts, plancache.Config{LabelSeed: snapSeed})
		return err
	})
}

// checkAnswers compares every pool text the loop answered with the
// direct-call predictions. It returns the number of texts that differ.
func checkAnswers(s *server, pool *requestPool, got map[int]*serve.PredictResult) (int, error) {
	bad := 0
	for i, res := range got {
		want, err := directPredict(nil, s, pool.queries[i].SQL, pool.labels[i])
		if err != nil {
			return 0, err
		}
		if len(want) != len(res.Predictions) {
			bad++
			continue
		}
		for k, v := range want {
			if w, ok := res.Predictions[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
				bad++
				break
			}
		}
	}
	return bad, nil
}

// scrapeCache reads the plan-cache counters from GET /metrics.
func scrapeCache(s *server) (map[string]float64, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "counter" && strings.HasPrefix(f[1], "plancache.") {
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, err
			}
			out[f[1]] = v
		}
	}
	return out, sc.Err()
}

// execSampler samples the stacks of running goroutines while the loop
// runs and counts those serving a request, and those of them inside the
// executor. Prediction never executes a query, so the second count
// should stay zero.
type execSampler struct {
	stop           chan struct{}
	done           chan struct{}
	request, inExe int
}

func startExecSampler(every time.Duration) *execSampler {
	es := &execSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(es.done)
		buf := make([]byte, 1<<20)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-es.stop:
				return
			case <-t.C:
			}
			n := runtime.Stack(buf, true)
			for _, g := range strings.Split(string(buf[:n]), "\n\n") {
				head, _, _ := strings.Cut(g, "\n")
				if !strings.Contains(head, "[running]") && !strings.Contains(head, "[runnable]") {
					continue
				}
				if strings.Contains(g, "qpp/internal/serve.") {
					es.request++
					if strings.Contains(g, "qpp/internal/exec.") {
						es.inExe++
					}
				}
			}
		}
	}()
	return es
}

func (es *execSampler) finish() (request, inExec int) {
	close(es.stop)
	<-es.done
	return es.request, es.inExe
}
