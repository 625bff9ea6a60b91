// Command alsd serves the DCGWO-ALS flow over HTTP: clients submit a
// named benchmark or an uploaded structural-Verilog netlist with an error
// constraint, the daemon runs the optimization on a bounded worker pool,
// and identical requests — across restarts — are answered from the
// persistent result store without recomputation.
//
// Usage:
//
//	alsd -addr :8080 -store alsd-results.jsonl -workers 2
//
// The store is a local file in one of two formats (-store-backend;
// docs/STORAGE.md): "jsonl" (the default file format), "embedded" (a
// single-file binary log safe for several daemons on one host, so they
// share one cache), or "auto" (detect from the -store file). No route
// exposes the store; daemons on several hosts share results by
// registering with one alscoord, which owns the cluster's store.
//
// Accepted submissions are write-ahead logged (-wal): a daemon killed
// hard with jobs queued or running re-enqueues them on restart — already
// persisted results are answered from the store bit-identically, only
// genuinely lost work runs again. "-wal auto" derives <store>.wal next to
// the store file (alsd-queue.wal without a store); an empty -wal disables
// durability. A WAL belongs to one daemon: a second one given the same
// file exits at startup.
//
// Clients use the /v2 flow API: submit, stream the run's events
// (per-iteration progress and every improved solution, over SSE), then
// read the result with its delay/error/area trade-off front:
//
//	curl -X POST localhost:8080/v2/jobs \
//	     -d '{"circuit":"Adder16","metric":"nmed","budget":0.0244}'
//	curl -N localhost:8080/v2/jobs/f000001/events
//	curl localhost:8080/v2/jobs/f000001/result
//	curl 'localhost:8080/v2/jobs?offset=0&limit=20'
//	curl -X POST localhost:8080/v2/jobs/f000001/cancel
//
// /v2 errors carry machine-readable codes ({"error":{"code":...}}), e.g.
// unknown_benchmark (404), infeasible (422), queue_full (503).
//
// Every alsd is also a sweep endpoint with no extra configuration: the
// same handler exposes the worker job API (POST /v1/jobs batch submit by
// canonical job spec, GET /v1/jobs/{hash} result fetch by content hash,
// GET /healthz readiness) that `experiments -coord http://host:8080`
// drives directly and alscoord's lanes drive for a registered worker
// (-register). A result fetch with ?wait=<duration> is held until the job
// ends (at most the wait, capped at 20 s), so those lanes see a result
// the moment its job finishes. Sweep cells and interactive submissions
// share one hash-keyed store, so either fills the cache for the other.
//
// Observability (docs/OPERATIONS.md has the full reference):
//
//	GET /metrics          Prometheus text exposition — queue depth, job
//	                      states and latency, evaluation-cache rates,
//	                      store traffic, SSE subscribers, HTTP by route
//	GET /debug/traces     recent request/job span trees; ?trace= one
//	                      trace, ?min_ms= slow ones, ?format=jsonl for
//	                      cmd/tracecat (-trace-buf 0 disables)
//	GET /debug/pprof/     live CPU/heap/goroutine profiles (-pprof only)
//
// Logs are structured (log/slog): -log-format picks text or json,
// -log-level the verbosity. Every HTTP response carries an X-Request-Id
// that the debug-level access log repeats, and every job log line carries
// its job_id.
//
// On SIGINT/SIGTERM the daemon stops accepting work, answers every held
// result fetch at once, lets in-flight jobs finish (up to -drain-timeout,
// after which they are cancelled at their next iteration boundary),
// flushes the store, and exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		storePath    = flag.String("store", "alsd-results.jsonl", "persistent result store file (empty disables persistence)")
		storeBackend = flag.String("store-backend", "auto", "store backend: auto, jsonl or embedded")
		walPath      = flag.String("wal", "auto", "submission write-ahead log: a path, \"auto\" (derive <store>.wal), or empty to disable durability")
		workers      = flag.Int("workers", 2, "concurrent flow jobs")
		queueDepth   = flag.Int("queue", 64, "maximum queued jobs")
		evalWorkers  = flag.Int("eval-workers", 0, "goroutines one flow keeps busy, the optimizer's included (0 = GOMAXPROCS/workers)")
		maxJobs      = flag.Int("max-jobs", 0, "in-memory job table bound; oldest finished jobs are evicted beyond it (0 = default 1024)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to let in-flight jobs finish on shutdown")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn or error (debug adds the per-request access log)")
		withPprof    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (profiles expose internals; keep off on untrusted networks)")
		traceBuf     = flag.Int("trace-buf", trace.DefaultCapacity, "span ring-buffer capacity for GET /debug/traces (0 disables tracing)")
		register     = flag.String("register", "", "coordinator base URL to register with (alscoord); heartbeats carry this daemon's queue depth and evals/sec")
		advertise    = flag.String("advertise", "", "base URL the coordinator should reach this daemon at (default http://127.0.0.1<addr> when -addr is a bare port)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alsd:", err)
		os.Exit(2)
	}

	// -store names a local file interpreted per -store-backend ("auto"
	// detects: magic header → embedded, anything else → jsonl). A bad
	// -store-backend is refused with or without a store file.
	if err := store.CheckKind(*storeBackend); err != nil {
		logger.Error("bad -store-backend", "error", err)
		os.Exit(1)
	}
	var st *store.Store
	if *storePath != "" {
		st, err = store.OpenKind(*storeBackend, *storePath)
		if err != nil {
			logger.Error("store open failed", "target", *storePath, "error", err)
			os.Exit(1)
		}
		logger.Info("store opened", "target", st.Path(), "backend", st.Kind(),
			"results", st.Len(), "corrupt_records", st.Corrupt())
	}

	// The WAL lives next to the store file; without a store, "auto" still
	// enables durability under a fixed local name — queued work is this
	// daemon's promise whether or not results persist.
	wp := *walPath
	if wp == "auto" {
		wp = "alsd-queue.wal"
		if st != nil {
			wp = st.Path() + ".wal"
		}
	}
	var wal *service.WAL
	if wp != "" {
		wal, err = service.OpenWAL(wp)
		if err != nil {
			logger.Error("wal open failed", "path", wp, "error", err)
			os.Exit(1)
		}
		logger.Info("wal opened", "path", wp,
			"pending", len(wal.Pending()), "corrupt_lines", wal.Corrupt())
	}

	var tracer *trace.Tracer
	if *traceBuf > 0 {
		tracer = trace.New(trace.Options{Service: "alsd" + *addr, Capacity: *traceBuf})
		logger.Info("tracing enabled", "path", "/debug/traces", "capacity", *traceBuf)
	}

	svc := service.New(service.Options{
		Store:       st,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		EvalWorkers: *evalWorkers,
		MaxJobs:     *maxJobs,
		Logger:      logger,
		Tracer:      tracer,
		WAL:         wal,
	})

	root := http.NewServeMux()
	root.Handle("/", svc.Handler())
	if *withPprof {
		// DefaultServeMux registration from the pprof import is unused;
		// mount the handlers explicitly on our own mux.
		root.HandleFunc("/debug/pprof/", pprof.Index)
		root.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		root.HandleFunc("/debug/pprof/profile", pprof.Profile)
		root.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		root.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: root}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("serving", "addr", *addr, "workers", *workers, "queue", *queueDepth)

	var hb *heartbeater
	if *register != "" {
		self := *advertise
		if self == "" {
			if len(*addr) > 0 && (*addr)[0] == ':' {
				self = "http://127.0.0.1" + *addr
			} else {
				self = "http://" + *addr
			}
		}
		hb = newHeartbeater(*register, self, svc, logger)
		go hb.run(ctx)
	}

	select {
	case err := <-errc:
		logger.Error("listener died", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("signal received, draining", "timeout", (*drainTimeout).String())

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if hb != nil {
		hb.deregister(shutdownCtx)
	}
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := svc.Drain(shutdownCtx); err != nil {
		logger.Warn("drain", "error", err)
	}
	if wal != nil {
		if err := wal.Close(); err != nil {
			logger.Warn("wal close", "error", err)
		}
	}
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Warn("store close", "error", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http server", "error", err)
	}
	fmt.Fprintln(os.Stderr, "alsd: drained cleanly")
}

// newLogger builds the process logger from the -log-format and -log-level
// flags. Both handlers write to stderr, keeping stdout free for tooling.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}
