// Telemetry for the serving stack. Every Server owns a serverMetrics: the
// full RED/USE-style instrument set for the submit → queue → evaluate →
// store pipeline, registered on the telemetry.Registry the daemon exposes
// at GET /metrics.
//
// The metric NAMES are frozen operational API — dashboards and alerts
// reference them — and are pinned by TestMetricNamesFrozen against
// testdata/metrics_v1.txt; renaming or removing one must update that
// contract file deliberately, exactly like an HTTP wire change must pass
// apicheck. Adding a new metric appends to the contract file.
//
// Instrumentation points:
//
//   - HTTP: every request is counted by route pattern and status code and
//     its duration observed, via the middleware in Handler(); the route
//     label is the ServeMux pattern (bounded cardinality), never the raw
//     URL. Requests also get an X-Request-Id for log correlation.
//   - Job lifecycle: submissions (accepted/deduped/store-served),
//     completions by terminal status, live running jobs, queue depth
//     (sampled from the queue buffer at scrape time) and the end-to-end
//     latency of executed jobs.
//   - Evaluation engine: total circuit evaluations and the
//     evaluation-cache counters (lookups/hits/fallbacks), accumulated
//     from each finished run's FlowResult.Cache — the atomic
//     counters internal/core already maintains, so the optimizer hot path
//     gains zero new instructions.
//   - Store: puts/lookups/hits of the persistent result store, via
//     store.Instrument.
//   - Streaming: the live SSE subscriber count.
package service

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	als "repro"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// jobDurationBuckets spans quick-scale flows (tens of ms) through
// paper-scale runs (minutes).
var jobDurationBuckets = []float64{.01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600}

// queueWaitBuckets reach lower than jobDurationBuckets: on a healthy
// server the queue wait is sub-millisecond, and the interesting signal is
// exactly when it stops being so.
var queueWaitBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30, 60}

// serverMetrics bundles every instrument one Server registers.
type serverMetrics struct {
	registry *telemetry.Registry

	httpRequests *telemetry.CounterVec // route, code
	httpDuration *telemetry.Histogram

	jobsSubmitted *telemetry.Counter
	jobsDeduped   *telemetry.Counter
	jobsStoreHits *telemetry.Counter
	jobsExecuted  *telemetry.Counter
	jobsCompleted *telemetry.CounterVec // status
	jobsRunning   *telemetry.Gauge
	jobDuration   *telemetry.Histogram

	evaluations        *telemetry.Counter
	evalCacheLookups   *telemetry.Counter
	evalCacheHits      *telemetry.Counter
	evalCacheFallbacks *telemetry.Counter

	storePuts *telemetry.Counter
	storeGets *telemetry.Counter
	storeHits *telemetry.Counter

	sseSubscribers *telemetry.Gauge

	queueWait *telemetry.Histogram

	walAppends  *telemetry.CounterVec // op
	walReplayed *telemetry.Counter
}

// newServerMetrics registers the server's instrument set on reg. The
// queue-depth gauge samples the queue buffer length at scrape time, which
// is why registration needs the Server.
func newServerMetrics(reg *telemetry.Registry, s *Server) *serverMetrics {
	m := &serverMetrics{registry: reg}

	m.httpRequests = reg.CounterVec("als_http_requests_total",
		"HTTP requests served, by ServeMux route pattern and status code.", "route", "code")
	m.httpDuration = reg.Histogram("als_http_request_duration_seconds",
		"HTTP request latency (SSE streams count their full lifetime).", nil)

	m.jobsSubmitted = reg.Counter("als_jobs_submitted_total",
		"Accepted submissions, including dedup and store-served ones.")
	m.jobsDeduped = reg.Counter("als_jobs_deduped_total",
		"Submissions attached to an identical live or finished job.")
	m.jobsStoreHits = reg.Counter("als_jobs_store_hits_total",
		"Submissions answered from the persistent result store.")
	m.jobsExecuted = reg.Counter("als_jobs_executed_total",
		"Flows actually computed by this process.")
	m.jobsCompleted = reg.CounterVec("als_jobs_completed_total",
		"Jobs reaching a terminal state, by status (done/failed/cancelled).", "status")
	m.jobsRunning = reg.Gauge("als_jobs_running",
		"Flows executing right now.")
	reg.GaugeFunc("als_queue_depth",
		"Jobs waiting in the submission queue buffer.", func() float64 {
			return float64(len(s.queue))
		})
	m.jobDuration = reg.Histogram("als_job_duration_seconds",
		"End-to-end latency of executed jobs that finished done.", jobDurationBuckets)

	m.evaluations = reg.Counter("als_evaluations_total",
		"Circuit evaluations performed by finished runs.")
	m.evalCacheLookups = reg.Counter("als_evalcache_lookups_total",
		"Evaluation-cache lookups (cache-eligible candidate evaluations).")
	m.evalCacheHits = reg.Counter("als_evalcache_hits_total",
		"Whole-candidate evaluation-cache hits.")
	m.evalCacheFallbacks = reg.Counter("als_evalcache_fallbacks_total",
		"Evaluations that bypassed the cache entirely.")

	m.storePuts = reg.Counter("als_store_puts_total",
		"Records appended to the persistent result store.")
	m.storeGets = reg.Counter("als_store_gets_total",
		"Lookups against the persistent result store.")
	m.storeHits = reg.Counter("als_store_hits_total",
		"Persistent-store lookups that found a record.")

	m.sseSubscribers = reg.Gauge("als_sse_subscribers",
		"Live /v2 event-stream subscriptions.")

	// Later metrics register below queueWait in the order they were added:
	// the metric-name contract file is append-only.
	m.queueWait = reg.Histogram("als_queue_wait_seconds",
		"Time an executed job waited between submission and run start.", queueWaitBuckets)

	m.walAppends = reg.CounterVec("als_wal_appends_total",
		"Submission write-ahead-log records appended, by op (accept/done/failed/cancelled).", "op")
	m.walReplayed = reg.Counter("als_wal_replayed_total",
		"Accepted submissions re-submitted from the write-ahead log at startup.")
	return m
}

// observeFlow folds one finished run's engine counters into the
// process-wide totals. FlowResult.Cache is cumulative over exactly that
// run (a fresh Evaluator per job), so per-run totals add without double
// counting.
func (m *serverMetrics) observeFlow(res *als.FlowResult) {
	m.evaluations.Add(int64(res.Evaluations))
	m.evalCacheLookups.Add(res.Cache.Lookups)
	m.evalCacheHits.Add(res.Cache.Hits)
	m.evalCacheFallbacks.Add(res.Cache.Fallbacks)
}

// statusWriter captures the response code for the request log and the
// route counter, forwarding Flush so SSE streaming keeps working through
// the middleware.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.code, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it streams and is a no-op
// otherwise, so the SSE handler behaves through the wrapper exactly as it
// would against the bare writer of every real net/http server.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap exposes the underlying writer to http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// instrument wraps the mux with request-ID assignment, tracing, the
// per-route request counter/latency histogram, and a structured access
// log. The route label is resolved through the mux's own pattern matcher,
// so its cardinality is bounded by the registered routes ("other"
// collects unmatched paths and wrong-method requests).
//
// Request-ID policy: with tracing enabled, every request gets a span —
// continuing the remote parent when a valid traceparent header arrives
// (the distributed-sweep coordinator sends one), minting a root
// otherwise — and the request ID IS the trace ID, so a log line and a
// trace are the same lookup key. With tracing off, an incoming
// X-Request-Id is honored (bounded and sanitized) so multi-hop requests
// stay greppable end to end, and only a hopless request falls back to
// the legacy per-process sequence.
func (s *Server) instrument(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := mux.Handler(r)
		if route == "" {
			route = "other"
		}
		var span *trace.Span
		var id string
		switch {
		case s.tracer.Enabled():
			if sc, err := trace.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
				span = s.tracer.StartRemote("http "+route, sc)
			} else {
				span = s.tracer.StartRoot("http " + route)
			}
			span.SetAttr("http.method", r.Method)
			span.SetAttr("http.path", r.URL.Path)
			id = span.TraceID()
			r = r.WithContext(trace.ContextWith(r.Context(), span))
		default:
			id = sanitizeRequestID(r.Header.Get("X-Request-Id"))
		}
		if id == "" {
			id = fmt.Sprintf("r%06d", s.reqSeq.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK // handler never wrote; net/http sends 200
		}
		span.SetAttr("http.status", code)
		span.End()
		s.metrics.httpRequests.With(route, strconv.Itoa(code)).Inc()
		s.metrics.httpDuration.Observe(elapsed.Seconds())
		s.log.Debug("http request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"status", code,
			"duration_ms", float64(elapsed.Microseconds())/1e3,
			"remote", r.RemoteAddr)
	})
}

// sanitizeRequestID accepts a forwarded request ID only when it is short
// and shell/log safe (hex, alphanumerics, '-', '_', '.'); anything else —
// including the empty string — returns "" and the caller mints a fresh
// ID. Log injection through a crafted header is the attack being blocked.
func sanitizeRequestID(id string) string {
	const maxLen = 64
	if id == "" || len(id) > maxLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case '0' <= c && c <= '9', 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}
