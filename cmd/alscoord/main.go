// Command alscoord runs the cluster control plane: workers register and
// heartbeat instead of being hand-listed, one weighted-fair queue feeds
// every lane by observed throughput, and clients reach the fleet through
// the same job API a single alsd serves.
//
// Usage:
//
//	alscoord -addr :9090 -store cluster-results.jsonl
//	alsd -addr :8081 -register http://localhost:9090 &
//	alsd -addr :8082 -register http://localhost:9090 &
//	experiments -coord http://localhost:9090 ...
//
// Workers join with POST /cluster/register and stay live by heartbeating
// (queue depth and evals/sec from their own /metrics counters ride
// along); -expire-after silent intervals drain a worker and fail its
// in-flight cells over to the rest of the fleet. GET /cluster/workers
// snapshots the live fleet. Each worker's lane holds up to its adaptive
// window of cells at the worker, tops up as they finish, and asks the
// worker to hold each result poll (wait=) until the cell ends, so a
// result reaches the coordinator the moment its cell finishes.
//
// Intake is the worker job API (POST /v1/jobs, GET /v1/jobs/{hash},
// whose ?wait= holds a poll until its cell ends) plus the /v2 batch
// surface: POST /v2/batches accepts many specs in one 202, deduplicated
// against the shared store before anything is scheduled, and POST
// /v2/subscriptions registers a callback URL for a set of content hashes
// — each result is POSTed exactly once as an HMAC-signed envelope
// (X-ALS-Signature: sha256=<hex>) with capped-backoff retries; a
// subscription whose every hash is delivered retires.
//
// Jobs carry a tenant (X-ALS-Tenant header or the /v2 "tenant" field)
// and a priority; dequeue is weighted-fair across tenants
// (-tenant-weight name=weight, repeatable) and -max-pending caps one
// tenant's outstanding cells.
//
// Accepted cells, terminal transitions, subscriptions and acknowledged
// deliveries are write-ahead logged (-wal): a coordinator killed hard
// re-enqueues lost work and re-delivers unacknowledged envelopes on
// restart. Results live in the cluster's one store (-store and
// -store-backend, the same flags as alsd), a local file the coordinator
// checks every accepted cell against and writes every finished cell to,
// so a restarted coordinator answers every hash the fleet ever computed.
//
// GET /metrics exposes the cluster gauges (als_cluster_*, als_webhook_*)
// next to the lane instruments; GET /debug/traces the scheduling spans.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/store"
	"repro/internal/trace"
)

// tenantWeights collects repeatable -tenant-weight name=weight flags.
type tenantWeights map[string]int

func (t tenantWeights) String() string { return fmt.Sprintf("%v", map[string]int(t)) }

func (t tenantWeights) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	if !ok || name == "" {
		return fmt.Errorf("want name=weight, got %q", v)
	}
	n, err := strconv.Atoi(val)
	if err != nil || n < 1 {
		return fmt.Errorf("weight in %q must be a positive integer", v)
	}
	t[name] = n
	return nil
}

func main() {
	weights := tenantWeights{}
	var (
		addr         = flag.String("addr", ":9090", "HTTP listen address")
		storePath    = flag.String("store", "alscoord-results.jsonl", "shared result store file (required: the cluster deduplicates against it)")
		storeBackend = flag.String("store-backend", "auto", "store backend: auto, jsonl or embedded")
		walPath      = flag.String("wal", "auto", "coordinator write-ahead log: a path, \"auto\" (derive <store>.coord.wal), or empty to disable durability")
		hbInterval   = flag.Duration("hb-interval", 2*time.Second, "heartbeat cadence workers are told to follow")
		expireAfter  = flag.Int("expire-after", 3, "silent heartbeat intervals before a worker is drained")
		maxPending   = flag.Int("max-pending", 4096, "per-tenant cap on queued+running cells")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		traceBuf     = flag.Int("trace-buf", trace.DefaultCapacity, "span ring-buffer capacity for GET /debug/traces (0 disables tracing)")
	)
	flag.Var(weights, "tenant-weight", "fair-dequeue weight as name=weight (repeatable; default 1)")
	flag.Parse()

	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alscoord:", err)
		os.Exit(2)
	}

	if *storePath == "" {
		logger.Error("a shared result store is required", "flag", "-store")
		os.Exit(2)
	}
	st, err := store.OpenKind(*storeBackend, *storePath)
	if err != nil {
		logger.Error("store open failed", "target", *storePath, "error", err)
		os.Exit(1)
	}
	logger.Info("store opened", "target", st.Path(), "backend", st.Kind(),
		"results", st.Len(), "corrupt_records", st.Corrupt())

	wp := *walPath
	if wp == "auto" {
		wp = st.Path() + ".coord.wal"
	}
	var wal *coord.WAL
	if wp != "" {
		wal, err = coord.OpenWAL(wp)
		if err != nil {
			logger.Error("wal open failed", "path", wp, "error", err)
			os.Exit(1)
		}
		logger.Info("wal opened", "path", wp, "pending", len(wal.Pending()),
			"subscriptions", len(wal.Subs()), "corrupt_lines", wal.Corrupt())
	}

	var tracer *trace.Tracer
	if *traceBuf > 0 {
		tracer = trace.New(trace.Options{Service: "alscoord" + *addr, Capacity: *traceBuf})
		logger.Info("tracing enabled", "path", "/debug/traces", "capacity", *traceBuf)
	}

	c, err := coord.New(coord.Options{
		Store:               st,
		WAL:                 wal,
		Logger:              logger,
		Tracer:              tracer,
		HeartbeatInterval:   *hbInterval,
		ExpireAfter:         *expireAfter,
		MaxPendingPerTenant: *maxPending,
		TenantWeights:       weights,
	})
	if err != nil {
		logger.Error("coordinator start failed", "error", err)
		os.Exit(1)
	}

	hs := &http.Server{Addr: *addr, Handler: c.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	logger.Info("serving", "addr", *addr,
		"hb_interval", (*hbInterval).String(), "expire_after", *expireAfter)

	select {
	case err := <-errc:
		logger.Error("listener died", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	logger.Info("signal received, draining")

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	c.Close()
	if wal != nil {
		if err := wal.Close(); err != nil {
			logger.Warn("wal close", "error", err)
		}
	}
	if err := st.Close(); err != nil {
		logger.Warn("store close", "error", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("http server", "error", err)
	}
	fmt.Fprintln(os.Stderr, "alscoord: drained cleanly")
}

// newLogger builds the process logger from the -log-format and -log-level
// flags; stderr only, keeping stdout free for tooling.
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
