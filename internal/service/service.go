// Package service runs the ALS flow as a long-lived, cancellable service:
// clients submit flow requests (a named benchmark or an uploaded
// structural-Verilog netlist) over HTTP/JSON, a bounded worker pool runs
// them with per-job status and live progress, and identical requests are
// deduplicated by the same canonical content hash the experiment
// orchestrator uses (internal/exp), with finished results persisted
// through internal/store — so a restarted daemon answers repeats from
// cache without recomputation. Only finished runs write the store; no
// route exposes it. Daemons on several hosts share results through a
// coordinator (internal/coord), not through each other's stores.
//
// The package splits into focused files:
//
//   - request.go: untrusted-input validation and canonical job identity
//     (flowSpec wraps an exp.Job, so a named-benchmark submission shares
//     its cache entry with the equivalent cmd/experiments cell);
//   - service.go (this file): the job table, queue, worker pool,
//     cancellation and graceful drain;
//   - http.go: the route table and the operational endpoints;
//   - v2.go: the flow API (/v2) — submission, SSE event streaming,
//     solution fronts, pagination, structured error codes;
//   - worker.go: the worker-facing job API (batch submit by canonical
//     exp.Job spec, result fetch by content hash) that lets any running
//     daemon serve as a distributed-sweep worker for internal/dispatch;
//   - metrics.go: the telemetry instrument set (GET /metrics), request
//     instrumentation middleware and the frozen metric-name contract.
//
// Observability: every Server owns a telemetry.Registry (or shares one
// via Options.Metrics) exposed at GET /metrics, logs through log/slog
// (Options.Logger) with job_id/request_id correlation, and stamps every
// HTTP response with an X-Request-Id. docs/OPERATIONS.md is the
// operator-facing reference.
package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	als "repro"
	"repro/internal/cell"
	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Status is one job's lifecycle state.
type Status string

// The job lifecycle: queued → running → done|failed|cancelled. A queued
// job cancelled before a worker picks it up goes straight to cancelled.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// terminal reports whether no further transitions can happen.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Progress is one job's live optimization progress, updated once per
// optimizer iteration by the flow's progress hook.
type Progress struct {
	// Iter counts completed optimizer iterations out of Total.
	Iter  int `json:"iter"`
	Total int `json:"total"`
	// BestRatioCPD is the best delay so far over CPDori — an upper bound
	// on the final ratio, which post-optimization only improves.
	BestRatioCPD float64 `json:"best_ratio_cpd"`
	// BestErr is the best individual's error under the job's metric.
	BestErr float64 `json:"best_err"`
	// Evaluations counts circuit evaluations so far.
	Evaluations int `json:"evaluations"`
}

// Stats counts what the server did since it started.
type Stats struct {
	// Submitted counts accepted submissions (including dedup/cache hits).
	Submitted int `json:"submitted"`
	// Executed counts flows actually computed by this process.
	Executed int `json:"executed"`
	// CacheHits counts submissions answered from the persistent store.
	CacheHits int `json:"cache_hits"`
	// Deduped counts submissions attached to an identical live or
	// finished job instead of spawning a new one.
	Deduped int `json:"deduped"`
	// Cancelled and Failed count terminal outcomes.
	Cancelled int `json:"cancelled"`
	Failed    int `json:"failed"`
}

// Options configures a Server. The zero value is usable: no persistence,
// one worker, a 64-deep queue, the default cell library.
type Options struct {
	// Store persists finished results keyed by job content hash; nil
	// disables persistence (dedup still works within the process).
	Store *store.Store
	// Workers bounds how many flows run concurrently (default 1).
	Workers int
	// QueueDepth bounds how many jobs may wait (default 64); submissions
	// beyond it are rejected with ErrQueueFull rather than queued
	// unboundedly.
	QueueDepth int
	// EvalWorkers caps the goroutines each flow keeps busy, its own
	// included. 0 picks GOMAXPROCS/Workers (min 1) so total parallelism stays
	// GOMAXPROCS-bounded, mirroring the experiment scheduler's split.
	EvalWorkers int
	// MaxJobs bounds the in-memory job table (default 1024). When a new
	// job would exceed it, the oldest terminal jobs are evicted (their
	// results stay served by the store); queued and running jobs are
	// never evicted, so the table is bounded by MaxJobs + QueueDepth +
	// Workers in the worst case.
	MaxJobs int
	// Lib is the cell library (default the synthetic 28nm library).
	Lib *cell.Library
	// Metrics is the telemetry registry the server instruments and the
	// Handler serves at GET /metrics. Nil allocates a private registry, so
	// metrics always work; pass one to share the scrape endpoint with other
	// subsystems (alsd passes its process registry).
	Metrics *telemetry.Registry
	// Logger receives structured log records (job transitions with job and
	// hash IDs, HTTP access records with request IDs). Nil disables
	// logging.
	Logger *slog.Logger
	// Tracer records request and job spans (internal/trace) and serves
	// them at GET /debug/traces. Nil disables tracing: every span call
	// site degrades to a no-op, and request IDs fall back to the legacy
	// per-process sequence.
	Tracer *trace.Tracer
	// WAL makes accepted submissions durable (wal.go): every genuinely
	// queued job appends an accept record before Submit returns, terminal
	// transitions append completion records, and New replays the log's
	// unresolved accepts — so a daemon SIGKILLed mid-queue re-enqueues the
	// lost jobs on restart and answers already-persisted ones from the
	// store, bit-identically. Nil disables write-ahead logging. The caller
	// owns the WAL (OpenWAL) and closes it after Drain/Close returns.
	WAL *WAL
}

// Submission errors the HTTP layer maps to 503; anything else from Submit
// is a validation error (400).
var (
	// ErrQueueFull rejects a submission when the pending queue is at
	// QueueDepth.
	ErrQueueFull = errors.New("service: queue full")
	// ErrDraining rejects submissions after Drain or Close began.
	ErrDraining = errors.New("service: server is draining")
)

// jobState is one submitted flow. All mutable fields are guarded by the
// server mutex.
type jobState struct {
	id       string
	spec     *flowSpec
	status   Status
	cached   bool // answered from the persistent store, never computed here
	progress Progress
	result   *exp.JobResult
	// front is the run's trade-off solution set (/v2 views only; the
	// worker job API's JobView never carries it).
	front []SolutionView
	// errMsg is the human-readable failure text; failCode is the
	// machine-readable /v2 error code derived from the failure's sentinel
	// (errors.Is, never prose matching).
	errMsg   string
	failCode string
	// subs holds the live /v2 event subscribers; entries are closed (and
	// the map nilled) when the job reaches a terminal state.
	subs map[chan JobEvent]struct{}
	// done is closed at the job's one terminal transition, waking the
	// result polls held on it (GET /v1/jobs/{hash}?wait=).
	done chan struct{}
	// parent is the submitting request's span: job spans (queue.wait,
	// job.run, store.put) parent onto its immutable identity, which stays
	// valid after the HTTP request span ends. queueSpan covers
	// submission→run-start and is ended by runJob or by a queued cancel.
	parent    *trace.Span
	queueSpan *trace.Span
	// cancelRun cancels the in-flight flow; non-nil only while running.
	cancelRun context.CancelFunc
	created   time.Time
	started   time.Time
	finished  time.Time
}

// Server owns the job table and worker pool. Create with New, serve its
// Handler, and shut down with Drain (graceful) or Close (immediate).
type Server struct {
	store       *store.Store
	lib         *cell.Library
	evalWorkers int
	maxJobs     int
	log         *slog.Logger
	metrics     *serverMetrics
	tracer      *trace.Tracer
	wal         *WAL
	reqSeq      atomic.Int64 // request-ID sequence for the access log
	holds       PollHolds    // held result polls (worker.go)

	baseCtx    context.Context // parent of every job run; Close cancels it
	baseCancel context.CancelFunc
	queue      chan *jobState
	wg         sync.WaitGroup

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*jobState
	order    []string          // job IDs in submission order
	byHash   map[string]string // content hash → job ID (latest)
	// tombs remembers terminal jobs whose full state is gone — evicted
	// from the table, or finished by a previous process and recovered from
	// the WAL's job snapshot — so their ids keep resolving. Bounded at
	// maxTombstones, oldest forgotten first.
	tombs     map[string]jobTomb
	tombOrder []string
	stats     Stats
}

// jobTomb is the durable residue of a terminal job: enough to answer
// "what happened to id X" (and, for done jobs, re-fetch the result from
// the store) after everything else about it is gone.
type jobTomb struct {
	hash   string
	status Status
}

// maxTombstones bounds the remembered terminal-id set. Beyond it the
// oldest mappings are forgotten; their results stay store-addressable by
// content hash either way.
const maxTombstones = 4096

// New starts a Server with opts.Workers worker goroutines. The caller
// owns opts.Store and closes it after Drain/Close returns.
func New(opts Options) *Server {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = 64
	}
	evalWorkers := opts.EvalWorkers
	if evalWorkers <= 0 && workers > 1 {
		evalWorkers = runtime.GOMAXPROCS(0) / workers
		if evalWorkers < 1 {
			evalWorkers = 1
		}
	}
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 1024
	}
	lib := opts.Lib
	if lib == nil {
		lib = als.NewLibrary()
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	// Replayed WAL accepts ride on top of the configured queue depth, so a
	// restart after a crash with a full queue can never fail its own
	// replay with ErrQueueFull.
	var pending []WALPending
	if opts.WAL != nil {
		pending = opts.WAL.Pending()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:       opts.Store,
		lib:         lib,
		evalWorkers: evalWorkers,
		maxJobs:     maxJobs,
		log:         logger,
		tracer:      opts.Tracer,
		wal:         opts.WAL,
		baseCtx:     ctx,
		baseCancel:  cancel,
		queue:       make(chan *jobState, depth+len(pending)),
		jobs:        map[string]*jobState{},
		byHash:      map[string]string{},
		tombs:       map[string]jobTomb{},
	}
	// Load the durable job table before anything can allocate an id: the
	// sequence must restart past every remembered id so a fresh job never
	// collides with one a previous process already promised a client.
	if opts.WAL != nil {
		for _, wj := range opts.WAL.Jobs() {
			s.rememberLocked(wj.ID, wj.Hash, Status(wj.Status))
			if n := idSeq(wj.ID); n > s.seq {
				s.seq = n
			}
		}
	}
	s.metrics = newServerMetrics(reg, s)
	if s.store != nil {
		s.store.Instrument(s.metrics.storePuts, s.metrics.storeGets, s.metrics.storeHits)
	}
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if s.wal != nil {
		s.replayWAL(pending)
	}
	return s
}

// replayWAL re-submits every unresolved accept from a previous process
// through the normal Submit path: submissions whose results the crashed
// daemon already persisted are answered from the store (no recomputation,
// bit-identical by the content-hash contract), the rest re-queue and run
// again. Afterwards the log is compacted down to the still-live set.
func (s *Server) replayWAL(pending []WALPending) {
	for _, p := range pending {
		v, err := s.Submit(context.Background(), p.Req)
		if err != nil {
			// The record can no longer be submitted (e.g. validation rules
			// changed across the restart). Resolve it so it stops replaying
			// on every future startup, and leave the reason in the log.
			s.log.Warn("wal replay rejected", "hash", p.Hash, "error", err)
			s.walAppend(nil, string(StatusFailed), p.Hash)
			continue
		}
		s.metrics.walReplayed.Inc()
		s.log.Info("wal replay", "hash", p.Hash, "job_id", v.ID,
			"from_store", v.Cached, "status", string(v.Status))
	}
	s.mu.Lock()
	var live []WALPending
	for _, id := range s.order {
		if j := s.jobs[id]; !j.status.terminal() {
			live = append(live, WALPending{Hash: j.spec.hash, Req: j.spec.request()})
		}
	}
	jobsSnap := make([]WALJob, 0, len(s.tombOrder))
	for _, id := range s.tombOrder {
		t := s.tombs[id]
		jobsSnap = append(jobsSnap, WALJob{ID: id, Hash: t.hash, Status: string(t.status)})
	}
	s.mu.Unlock()
	if err := s.wal.Compact(live, jobsSnap); err != nil {
		s.log.Warn("wal compaction failed", "error", err)
	}
}

// rememberLocked records a terminal id → hash/status tombstone, evicting
// the oldest beyond maxTombstones. Held under s.mu once the server is
// serving (New calls it before any concurrency exists).
func (s *Server) rememberLocked(id, hash string, st Status) {
	if id == "" || !st.terminal() {
		return
	}
	if _, ok := s.tombs[id]; !ok {
		s.tombOrder = append(s.tombOrder, id)
	}
	s.tombs[id] = jobTomb{hash: hash, status: st}
	for len(s.tombOrder) > maxTombstones {
		delete(s.tombs, s.tombOrder[0])
		s.tombOrder = s.tombOrder[1:]
	}
}

// idSeq parses the numeric tail of a job id ("f%06d" from newJobLocked);
// 0 for anything malformed.
func idSeq(id string) int {
	if len(id) < 2 || id[0] != 'f' {
		return 0
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// walAppend records one WAL transition (nil-safe without a WAL): op is
// walOpAccept — accompanied by the job's replayable request — or a
// terminal Status string. Append failures are logged, not returned: the
// job proceeds either way (availability over durability; the operator
// sees the warning and the als_wal_appends_total/op counter).
func (s *Server) walAppend(j *jobState, op, hash string) {
	if s.wal == nil {
		return
	}
	var span *trace.Span
	var err error
	if op == walOpAccept {
		span = j.parent.StartChild("wal.append")
		req := j.spec.request()
		err = s.wal.Accept(hash, req)
	} else {
		var id string
		if j != nil {
			span = j.parent.StartChild("wal.append")
			id = j.id
		}
		err = s.wal.Resolve(op, hash, id)
	}
	span.SetAttr("op", op)
	if err != nil {
		span.SetAttr("error", err.Error())
		s.log.Warn("wal append failed", "op", op, "hash", hash, "error", err)
	}
	span.End()
	s.metrics.walAppends.With(op).Inc()
}

// Metrics returns the registry the server instruments (served by the
// Handler at GET /metrics).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.registry }

// Submit validates a request and either attaches it to an identical live
// or finished job (dedup), answers it from the persistent store (cache),
// or enqueues a new job. The returned view's Cached field is true when no
// computation will happen for this submission. When ctx carries a trace
// span (the HTTP middleware roots one per request), the span is stamped
// with the submission outcome and, for a genuinely queued job, becomes
// the parent of the job's queue.wait/job.run/store.put spans.
func (s *Server) Submit(ctx context.Context, req Request) (JobView, error) {
	reqSpan := trace.FromContext(ctx)
	sp, err := validate(req)
	if err != nil {
		reqSpan.SetAttr("outcome", "invalid")
		return JobView{}, err
	}
	reqSpan.SetAttr("hash", sp.hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		reqSpan.SetAttr("outcome", "draining")
		return JobView{}, ErrDraining
	}

	// Dedup against a live or successfully finished job with the same
	// content hash. Failed and cancelled jobs don't count — an identical
	// resubmission gets a fresh run.
	if id, ok := s.byHash[sp.hash]; ok {
		j := s.jobs[id]
		if j.status != StatusFailed && j.status != StatusCancelled {
			s.stats.Submitted++
			s.stats.Deduped++
			s.metrics.jobsSubmitted.Inc()
			s.metrics.jobsDeduped.Inc()
			reqSpan.SetAttr("outcome", "dedup")
			reqSpan.SetAttr("job_id", j.id)
			v := s.viewLocked(j)
			v.Cached = v.Cached || j.status == StatusDone
			return v, nil
		}
	}

	// Cache: a result persisted by an earlier run of this daemon, a
	// previous daemon over the same store, or a cmd/experiments sweep.
	if s.store != nil {
		var r exp.JobResult
		if ok, err := s.store.Decode(sp.hash, &r); err == nil && ok {
			j := s.newJobLocked(sp)
			now := time.Now()
			j.status = StatusDone
			j.cached = true
			j.result = &r
			// The front is persisted separately (sweep stores predate it);
			// a miss just means the cached v2 result has no front.
			var front []SolutionView
			if ok, err := s.store.Decode(frontKey(sp.hash), &front); err == nil && ok {
				j.front = front
			}
			j.started, j.finished = now, now
			close(j.done)
			s.stats.Submitted++
			s.stats.CacheHits++
			s.metrics.jobsSubmitted.Inc()
			s.metrics.jobsStoreHits.Inc()
			reqSpan.SetAttr("outcome", "store_hit")
			reqSpan.SetAttr("job_id", j.id)
			s.log.Info("job served from store",
				"job_id", j.id, "hash", sp.hash, "spec", j.spec.job.String())
			return s.viewLocked(j), nil
		}
	}

	j := s.newJobLocked(sp)
	select {
	case s.queue <- j:
	default:
		delete(s.jobs, j.id)
		delete(s.byHash, sp.hash)
		s.order = s.order[:len(s.order)-1]
		reqSpan.SetAttr("outcome", "queue_full")
		return JobView{}, ErrQueueFull
	}
	reqSpan.SetAttr("outcome", "queued")
	reqSpan.SetAttr("job_id", j.id)
	j.parent = reqSpan
	j.queueSpan = reqSpan.StartChild("queue.wait")
	// Write-ahead: the accept record is durable before the caller (and
	// therefore the client's 202) learns the job was queued. Dedup and
	// store-served submissions never reach here — they owe no future work.
	s.walAppend(j, walOpAccept, sp.hash)
	s.stats.Submitted++
	s.metrics.jobsSubmitted.Inc()
	s.log.Info("job queued",
		"job_id", j.id, "hash", sp.hash, "spec", j.spec.job.String(), "queue_depth", len(s.queue))
	return s.viewLocked(j), nil
}

// newJobLocked allocates a queued jobState and indexes it, evicting the
// oldest terminal jobs once the table exceeds MaxJobs; s.mu held.
func (s *Server) newJobLocked(sp *flowSpec) *jobState {
	s.evictLocked()
	s.seq++
	j := &jobState{
		id:      fmt.Sprintf("f%06d", s.seq),
		spec:    sp,
		status:  StatusQueued,
		done:    make(chan struct{}),
		created: time.Now(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.byHash[sp.hash] = j.id
	return j
}

// evictLocked drops the oldest terminal jobs while the table is at or
// above MaxJobs, so a long-lived daemon's memory stays bounded. Queued
// and running jobs are never evicted; an evicted done job's result is
// still served by the persistent store (in-process dedup for its hash is
// lost, which costs at most one store lookup). s.mu held.
func (s *Server) evictLocked() {
	if len(s.jobs) < s.maxJobs {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if len(s.jobs) >= s.maxJobs && j.status.terminal() {
			delete(s.jobs, id)
			if s.byHash[j.spec.hash] == id {
				delete(s.byHash, j.spec.hash)
			}
			// The id keeps resolving (status + store-backed result) after
			// the full state is dropped.
			s.rememberLocked(id, j.spec.hash, j.status)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// tombViewLocked synthesizes the view of a tombstoned terminal job;
// s.mu held.
func (s *Server) tombViewLocked(id string, t jobTomb) JobView {
	v := JobView{ID: id, Hash: t.hash, Status: t.status}
	switch t.status {
	case StatusDone:
		v.Cached = true
		if s.store != nil {
			var r exp.JobResult
			if ok, err := s.store.Decode(t.hash, &r); err == nil && ok {
				v.Result = &r
			}
		}
	case StatusFailed:
		v.Error = "job failed; detail evicted from the job table"
	case StatusCancelled:
		v.Error = "job cancelled; detail evicted from the job table"
	}
	return v
}

// QueueDepth reports how many accepted jobs are waiting for a worker —
// the backlog figure a registered worker's heartbeat carries to its
// coordinator.
func (s *Server) QueueDepth() int { return len(s.queue) }

// EvalsTotal reports the total circuit evaluations finished runs have
// performed (the als_evaluations_total counter) — the throughput basis a
// coordinator's adaptive scheduler works from.
func (s *Server) EvalsTotal() int64 { return s.metrics.evaluations.Value() }

// Stats returns the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Cancel stops a job: a queued job becomes cancelled immediately, a
// running job's context is cancelled (the flow stops at its next
// iteration boundary), and a terminal job is left untouched. The second
// return is false when no job has that ID.
func (s *Server) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		// A tombstoned job is terminal by definition: like any terminal
		// job, cancel leaves it untouched and reports its state.
		if t, ok := s.tombs[id]; ok {
			return s.tombViewLocked(id, t), true
		}
		return JobView{}, false
	}
	switch j.status {
	case StatusQueued:
		j.status = StatusCancelled
		j.errMsg = "cancelled before start"
		j.finished = time.Now()
		s.walAppend(j, string(StatusCancelled), j.spec.hash)
		s.stats.Cancelled++
		s.metrics.jobsCompleted.With(string(StatusCancelled)).Inc()
		j.queueSpan.SetAttr("outcome", "cancelled")
		j.queueSpan.End()
		j.queueSpan = nil
		s.closeSubsLocked(j)
		s.log.Info("job cancelled while queued", "job_id", j.id)
	case StatusRunning:
		// The worker observes the context at the next iteration boundary
		// and marks the job cancelled; report the current state meanwhile.
		j.cancelRun()
		s.log.Info("job cancellation requested", "job_id", j.id)
	}
	return s.viewLocked(j), true
}

// Drain shuts the server down gracefully: new submissions are rejected
// with ErrDraining, queued and running jobs are allowed to finish, and
// Drain returns when the workers exit. If ctx expires first, every
// in-flight job is cancelled (stopping at its next iteration boundary,
// with its partial work discarded but every previously finished result
// already flushed to the store) and Drain waits for the workers before
// returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		return fmt.Errorf("service: drain timed out, in-flight jobs cancelled: %w", ctx.Err())
	}
}

// Close shuts down immediately: submissions are rejected, in-flight jobs
// are cancelled, and Close returns when the workers exit.
func (s *Server) Close() {
	s.beginDrain()
	s.baseCancel()
	s.wg.Wait()
}

// beginDrain flips the draining flag and closes the queue exactly once.
// Sends to the queue only happen in Submit under s.mu with !draining, so
// closing under the same lock cannot race a send.
func (s *Server) beginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
}

// worker runs queued jobs until the queue is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// runJob executes one queued job end to end and records its outcome.
func (s *Server) runJob(j *jobState) {
	s.mu.Lock()
	if j.status != StatusQueued { // cancelled while waiting in the queue
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.status = StatusRunning
	j.cancelRun = cancel
	j.started = time.Now()
	sp := j.spec
	queueSpan := j.queueSpan
	j.queueSpan = nil
	s.mu.Unlock()
	defer cancel()
	s.metrics.queueWait.Observe(j.started.Sub(j.created).Seconds())
	queueSpan.SetAttr("outcome", "started")
	queueSpan.End()
	runSpan := j.parent.StartChild("job.run")
	runSpan.SetAttr("job_id", j.id)
	runSpan.SetAttr("hash", sp.hash)
	ctx = trace.ContextWith(ctx, runSpan)
	s.metrics.jobsRunning.Inc()
	defer s.metrics.jobsRunning.Dec()
	s.log.Info("job running", "job_id", j.id, "spec", sp.job.String())

	res, front, err := s.execute(ctx, j, sp)

	// Persist before publishing "done": once a client sees done, a
	// restarted daemon must also be able to serve the result. The front
	// rides along under a derived key so legacy stores (and the sweep
	// tooling, which only reads job hashes) are unaffected.
	if err == nil && s.store != nil {
		putSpan := runSpan.StartChild("store.put")
		if perr := s.store.Put(sp.hash, res); perr != nil {
			s.log.Warn("job result not persisted", "job_id", j.id, "error", perr)
		}
		if len(front) > 0 {
			if perr := s.store.Put(frontKey(sp.hash), front); perr != nil {
				s.log.Warn("job front not persisted", "job_id", j.id, "error", perr)
			}
		}
		putSpan.End()
	}

	// End the run span before the terminal status becomes visible, so a
	// client that polls the job to "done" and immediately scrapes
	// /debug/traces never catches the span still open.
	switch {
	case err == nil:
		runSpan.SetAttr("status", string(StatusDone))
	case errors.Is(err, context.Canceled):
		runSpan.SetAttr("status", string(StatusCancelled))
	default:
		runSpan.SetAttr("status", string(StatusFailed))
	}
	runSpan.End()

	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancelRun = nil
	j.finished = time.Now()
	// The completion record lands before the terminal status is visible:
	// once a client observes the end state, a restart will not replay the
	// job. (The reverse order could replay an already-answered job — safe,
	// via the store, but wasteful.)
	switch {
	case err == nil:
		s.walAppend(j, string(StatusDone), sp.hash)
		j.status = StatusDone
		j.result = &res
		j.front = front
		s.stats.Executed++
		s.metrics.jobsExecuted.Inc()
		s.metrics.jobsCompleted.With(string(StatusDone)).Inc()
		s.metrics.jobDuration.Observe(j.finished.Sub(j.started).Seconds())
		s.log.Info("job done",
			"job_id", j.id,
			"ratio_cpd", res.RatioCPD,
			"err", res.Err,
			"front", len(front),
			"duration", j.finished.Sub(j.started).Round(time.Millisecond).String())
	case errors.Is(err, context.Canceled):
		s.walAppend(j, string(StatusCancelled), sp.hash)
		j.status = StatusCancelled
		j.errMsg = err.Error()
		s.stats.Cancelled++
		s.metrics.jobsCompleted.With(string(StatusCancelled)).Inc()
		s.log.Info("job cancelled", "job_id", j.id, "iterations", j.progress.Iter)
	default:
		s.walAppend(j, string(StatusFailed), sp.hash)
		j.status = StatusFailed
		j.errMsg = err.Error()
		j.failCode = failCodeFor(err)
		s.stats.Failed++
		s.metrics.jobsCompleted.With(string(StatusFailed)).Inc()
		s.log.Warn("job failed", "job_id", j.id, "error", err)
	}
	s.closeSubsLocked(j)
}

// execute runs the flow for one job as a streaming session, mirroring
// progress into the job table and broadcasting live events to the /v2
// subscribers. It holds no locks while computing; the session's effective
// configuration resolves identically to the legacy FlowConfig path, so
// results (and the shared content-hash cache) are unchanged.
func (s *Server) execute(ctx context.Context, j *jobState, sp *flowSpec) (exp.JobResult, []SolutionView, error) {
	circuit, err := sp.buildCircuit()
	if err != nil {
		return exp.JobResult{}, nil, err
	}
	sess, err := als.NewSession(circuit, s.lib, sp.sessionOptions(s.evalWorkers)...)
	if err != nil {
		return exp.JobResult{}, nil, err
	}
	var res *als.FlowResult
	var front als.Front
	for ev, err := range sess.Run(ctx) {
		if err != nil {
			return exp.JobResult{}, nil, err
		}
		switch ev.Kind {
		case als.EventProgress:
			p := Progress{
				Iter:         ev.Progress.Iter,
				Total:        ev.Progress.Total,
				BestRatioCPD: ev.Progress.BestRatioCPD,
				BestErr:      ev.Progress.BestErr,
				Evaluations:  ev.Progress.Evaluations,
			}
			s.mu.Lock()
			j.progress = p
			s.broadcastLocked(j, JobEvent{Type: EventTypeProgress, Progress: &p})
			s.mu.Unlock()
		case als.EventImproved:
			s.mu.Lock()
			s.broadcastLocked(j, JobEvent{Type: EventTypeSolution, Solution: &SolutionView{
				RatioCPD: ev.Solution.RatioCPD,
				Err:      ev.Solution.Err,
				Area:     ev.Solution.Area,
			}})
			s.mu.Unlock()
		case als.EventDone:
			res, front = ev.Result, ev.Front
			s.metrics.observeFlow(res)
		}
	}
	if res == nil {
		// Unreachable: a stream that is never broken ends in EventDone or
		// an error; keep the invariant explicit for future refactors.
		return exp.JobResult{}, nil, fmt.Errorf("service: job %s produced no result", j.id)
	}
	views := make([]SolutionView, len(front))
	for i, sol := range front {
		views[i] = SolutionView{RatioCPD: sol.RatioCPD, Err: sol.Err, Area: sol.Area}
	}
	return exp.ResultOf(res), views, nil
}

// JobView is the API's point-in-time snapshot of one job.
type JobView struct {
	ID   string `json:"id"`
	Hash string `json:"hash"`
	// Spec is the canonical job (uploaded netlists appear as their
	// content key "verilog:<sha256>").
	Spec   exp.Job `json:"spec"`
	Status Status  `json:"status"`
	// Cached is true when the submission required no computation: the
	// result came from the persistent store or from an identical
	// already-finished job.
	Cached   bool           `json:"cached"`
	Progress *Progress      `json:"progress,omitempty"`
	Result   *exp.JobResult `json:"result,omitempty"`
	Error    string         `json:"error,omitempty"`
	Created  time.Time      `json:"created"`
	Started  time.Time      `json:"started,omitzero"`
	Finished time.Time      `json:"finished,omitzero"`
}

// viewLocked snapshots a job; s.mu held.
func (s *Server) viewLocked(j *jobState) JobView {
	v := JobView{
		ID:       j.id,
		Hash:     j.spec.hash,
		Spec:     j.spec.job,
		Status:   j.status,
		Cached:   j.cached,
		Error:    j.errMsg,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
	}
	if j.progress.Total != 0 {
		p := j.progress
		v.Progress = &p
	}
	if j.result != nil {
		r := *j.result
		v.Result = &r
	}
	return v
}
