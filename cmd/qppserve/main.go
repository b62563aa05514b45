// Command qppserve is the QPP-as-a-service daemon: it serves latency
// predictions from trained model snapshots over HTTP (see
// internal/serve for the endpoint contract).
//
// Two startup modes:
//
//	qppserve -models models/ -sf 0.01 -seed 42   # load a qpptrain -out dir
//	qppserve -sf 0.01 -per-template 20           # train in-process, then serve
//
// In -models mode the TPC-H database is regenerated deterministically
// from -sf and -seed, which must match the values the snapshot was
// trained with — plan features are scale-dependent, so serving a model
// against a mismatched database silently mispredicts.
//
// POST /reload re-reads the model directory (or retrains with the
// startup config) and atomically swaps the new snapshot in; in-flight
// predictions finish on the old one.
//
// SIGINT or SIGTERM stops accepting connections and drains in-flight
// requests for up to shutdownGrace before exiting.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qpp/internal/qpp"
	"qpp/internal/serve"
	"qpp/internal/storage"
	"qpp/internal/tpch"
)

// Server timeouts. ReadTimeout bounds a slow client's whole request
// (bodies are capped at 1 MiB); WriteTimeout bounds a whole handler,
// including an in-process /reload retrain; IdleTimeout reaps idle
// keep-alive connections.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
	// shutdownGrace bounds the drain of in-flight requests on SIGINT/SIGTERM.
	shutdownGrace = 30 * time.Second
)

// newServer builds the HTTP server with every timeout set.
func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// serveUntil serves srv on ln until serving fails or ctx is done, then
// shuts srv down, draining in-flight requests for up to shutdownGrace.
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("qppserve: shutting down (draining up to %s)", shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errc // Serve returns http.ErrServerClosed as soon as Shutdown starts
	return err
}

func parseStrategy(s string) qpp.Strategy {
	switch s {
	case "size":
		return qpp.SizeBased
	case "frequency":
		return qpp.FrequencyBased
	default:
		return qpp.ErrorBased
	}
}

// buildSnapshot resolves the startup mode into a first snapshot, the
// database to plan against, and the /reload source.
func buildSnapshot(models string, cfg serve.TrainConfig) (*serve.Snapshot, *storage.Database, func() (*serve.Snapshot, error), error) {
	if models != "" {
		db, err := tpch.Generate(tpch.GenConfig{ScaleFactor: cfg.ScaleFactor, Seed: cfg.Seed})
		if err != nil {
			return nil, nil, nil, err
		}
		snap, err := serve.LoadSnapshot(models)
		if err != nil {
			return nil, nil, nil, err
		}
		reload := func() (*serve.Snapshot, error) { return serve.LoadSnapshot(models) }
		return snap, db, reload, nil
	}
	snap, db, err := serve.TrainSnapshot(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	reload := func() (*serve.Snapshot, error) {
		next, _, err := serve.TrainSnapshot(cfg)
		return next, err
	}
	return snap, db, reload, nil
}

func main() {
	addr := flag.String("addr", ":8099", "listen address")
	models := flag.String("models", "", "model directory to load (empty: train in-process at startup)")
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (must match training when loading -models)")
	seed := flag.Int64("seed", 42, "generation seed (must match training when loading -models)")
	perTemplate := flag.Int("per-template", 20, "training queries per template (in-process training mode)")
	strategy := flag.String("strategy", "error", "hybrid strategy: error, size, frequency")
	par := flag.Int("parallel", 0, "training workload workers (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := serve.TrainConfig{
		ScaleFactor: *sf,
		PerTemplate: *perTemplate,
		Seed:        *seed,
		Strategy:    parseStrategy(*strategy),
		Parallelism: *par,
	}
	if *models == "" {
		log.Printf("qppserve: training in-process (sf %g, %d per template, seed %d)...", *sf, *perTemplate, *seed)
	}
	snap, db, reload, err := buildSnapshot(*models, cfg)
	if err != nil {
		log.Fatalf("qppserve: %v", err)
	}
	s := serve.New(db, snap, serve.Options{Reload: reload})
	log.Printf("qppserve: serving model %s on %s", snap.Version, *addr)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("qppserve: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveUntil(ctx, newServer(*addr, s), ln); err != nil {
		log.Fatalf("qppserve: %v", err)
	}
}
