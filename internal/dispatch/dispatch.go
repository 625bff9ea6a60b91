// Package dispatch runs an experiment job set on one remote endpoint — an
// alscoord coordinator or a single alsd — through the worker job API of
// internal/service (batch submit, poll by content hash), assembling the
// same ResultSet a single-machine run produces. Every cell is a pure
// function of its content hash, so where it runs cannot change what it
// returns.
//
// The deduplicated, cache-filtered job set (exp.PendingJobs) feeds one
// Lane (lane.go), which submits up to SubmitBatch cells at a time. Each
// finished cell streams into the persistent store the moment the lane
// observes it, so an interrupted or failed run resumes exactly like a
// local one. Transient transport failures retry with capped exponential
// backoff; an endpoint that exhausts its retry budget, or drains, fails
// the run with its unfinished cells counted, and a -resume completes the
// sweep from the store. A deterministic job failure fails the run too (it
// would fail anywhere).
//
// Runs are observable two ways: Options.Logger receives lane events, and
// Options.Metrics (created once per telemetry.Registry with NewMetrics,
// shared across runs) exports per-lane throughput, retries and the
// remaining-cell gauge — what `experiments -metrics-addr` serves during a
// sweep.
package dispatch

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

// Options configures one distributed run.
type Options struct {
	// Endpoint is the base URL of an alscoord or an alsd
	// (e.g. http://h1:8080); both serve the worker job API.
	Endpoint string
	// Store persists finished cells as they stream back (nil disables
	// persistence; cached cells are skipped up front either way).
	Store *store.Store
	// Client issues all endpoint HTTP requests (default: 30s timeout).
	Client *http.Client
	// PollInterval is the longest a finished cell can go unnoticed
	// (default 50ms): one poll sweep's deadline. Each poll asks the
	// endpoint to hold it (wait=) for the time left in the sweep, so the
	// cell being waited on is seen the moment it ends; an endpoint that
	// answers at once (an older build) is swept once per PollInterval.
	PollInterval time.Duration
	// SubmitBatch caps job specs per submission (default 16).
	SubmitBatch int
	// RetryBudget is how many consecutive transport failures the run
	// tolerates before it fails (default 4).
	RetryBudget int
	// Backoff is the first retry delay; it doubles per consecutive
	// failure up to MaxBackoff (defaults 100ms and 2s).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Logger receives lane events; nil discards them.
	Logger *slog.Logger
	// Metrics, when non-nil, records per-lane throughput and retries
	// (create once with NewMetrics and share across runs).
	Metrics *Metrics
	// Tracer records the sweep as one trace: a root span per run and a
	// child span per submit/poll round trip, each carrying a traceparent
	// header the endpoint's middleware continues. Nil disables tracing;
	// the X-Request-Id run correlation below works either way.
	Tracer *trace.Tracer
}

func (o Options) withDefaults() Options {
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.SubmitBatch <= 0 {
		o.SubmitBatch = 16
	}
	if o.SubmitBatch > service.MaxBatchJobs {
		o.SubmitBatch = service.MaxBatchJobs
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 4
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	return o
}

// Run executes jobs on opts.Endpoint and returns the ResultSet keyed by
// job hash — element-for-element identical to what exp.RunJobsContext
// computes for the same list, wall-clock fields aside. On cancellation the
// returned error wraps ctx.Err(), and the store holds every cell that
// finished, so the run is resumable.
func Run(ctx context.Context, jobs []exp.Job, opts Options) (exp.ResultSet, exp.RunStats, error) {
	opts = opts.withDefaults()
	if opts.Endpoint == "" {
		return nil, exp.RunStats{}, errors.New("dispatch: no endpoint")
	}
	base := strings.TrimRight(opts.Endpoint, "/")

	rs := exp.ResultSet{}
	pending, hashes, stats, err := exp.PendingJobs(jobs, opts.Store, rs)
	if err != nil {
		return nil, stats, err
	}
	if len(pending) == 0 {
		return rs, stats, nil
	}

	// The worker job API enforces the service's untrusted-input resource
	// caps; a spec beyond them (e.g. a -pop override over MaxPopulation)
	// would 400 the first batch that carries it. Check the whole set up
	// front so the run fails immediately with the offending job named.
	for _, j := range pending {
		if err := service.ValidateJobSpec(j); err != nil {
			return nil, stats, fmt.Errorf("dispatch: job %s would be rejected by the worker API: %w (lower the override or run without -coord)", j, err)
		}
	}

	// One span roots the whole sweep — as a child when the caller already
	// carries one on ctx (cmd/experiments roots a per-invocation span),
	// fresh otherwise. Its trace ID doubles as the run's log-correlation
	// token; without a tracer a random tag fills that role.
	var sweep *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		sweep = parent.StartChild("dispatch.sweep")
	} else {
		sweep = opts.Tracer.StartRoot("dispatch.sweep")
	}
	sweep.SetAttr("jobs", len(jobs))
	sweep.SetAttr("pending", len(pending))
	runID := sweep.TraceID()
	if runID == "" {
		var b [8]byte
		crand.Read(b[:]) //nolint:errcheck // never fails on supported platforms
		runID = "sweep-" + hex.EncodeToString(b[:])
	}
	defer func() {
		sweep.SetAttr("executed", stats.Executed)
		sweep.End()
	}()

	// Readiness preflight: a typo'd or dead endpoint fails at once with a
	// clear error instead of burning the full retry budget.
	if err := probeHealth(ctx, opts.Client, base, runID); err != nil {
		if ctx.Err() != nil {
			return nil, stats, fmt.Errorf("dispatch: run cancelled: %w", ctx.Err())
		}
		return nil, stats, fmt.Errorf("dispatch: endpoint %s did not answer /healthz: %w", base, err)
	}

	r := &runSched{ctx: ctx, opts: opts, span: sweep, rs: rs}
	for i := range pending {
		r.pending = append(r.pending, &Task{Job: pending[i], Hash: hashes[i]})
	}
	opts.Metrics.remaining(int64(len(pending)))
	defer func() { opts.Metrics.remaining(-int64(len(pending) - r.executed)) }()

	l := &Lane{
		Name:         base,
		Base:         base,
		Client:       opts.Client,
		SubmitBatch:  opts.SubmitBatch,
		RetryBudget:  opts.RetryBudget,
		Backoff:      opts.Backoff,
		MaxBackoff:   opts.MaxBackoff,
		PollInterval: opts.PollInterval,
		Logger:       opts.Logger,
		Metrics:      opts.Metrics,
		Sched:        r,
		Ctx:          ctx,
		Store:        opts.Store,
		RequestID:    runID,
		Span:         sweep,
	}
	_, cause := l.Run()
	stats.Executed = r.executed
	unfinished := len(pending) - r.executed
	switch {
	case unfinished == 0:
		return rs, stats, nil
	case ctx.Err() != nil:
		return nil, stats, fmt.Errorf("dispatch: run cancelled: %w", ctx.Err())
	case r.err != nil:
		return nil, stats, r.err
	}
	return nil, stats, fmt.Errorf("dispatch: endpoint %s failed with %d cell(s) unfinished: %w", base, unfinished, cause)
}

// probeHealth issues one short-deadline readiness probe, tagged with the
// run ID so even the preflight is greppable in the endpoint's logs.
func probeHealth(ctx context.Context, client *http.Client, base, runID string) error {
	probeCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	req.Header.Set("X-Request-Id", runID)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for connection reuse
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return nil
}

// runSched is Run's LaneScheduler. The lane calls it only from Run's own
// goroutine, so it needs no locking: Next and Fill draw from the run's
// pending queue, completions land in the ResultSet and the store, and the
// first failure ends the run. The lane itself carries the run's context,
// store, sweep span and run ID — the trace ID when tracing, a random
// "sweep-…" tag otherwise, sent as X-Request-Id on every request so the
// endpoint's logs grep by sweep either way.
type runSched struct {
	ctx      context.Context
	opts     Options
	span     *trace.Span // the sweep's root span (nil without a Tracer)
	pending  []*Task
	rs       exp.ResultSet
	executed int
	err      error
}

// Next hands out the next pending cell. The lane asks only once it has
// nothing unsubmitted or outstanding, so an empty queue ends the run.
func (r *runSched) Next() (*Task, bool) {
	if len(r.pending) == 0 || r.err != nil || r.ctx.Err() != nil {
		return nil, false
	}
	t := r.pending[0]
	r.pending = r.pending[1:]
	return t, true
}

// Fill tops the lane up to SubmitBatch held cells from the pending queue.
func (r *runSched) Fill(held int) []*Task {
	n := min(max(r.opts.SubmitBatch-held, 0), len(r.pending))
	out := r.pending[:n:n]
	r.pending = r.pending[n:]
	return out
}

// Offload keeps queue-full remainders lane-local: the run has no other
// lane to give them to.
func (r *runSched) Offload([]*Task) bool { return false }

// Complete records one finished cell: persist first (a cell the store
// never saw must not count as done for -resume), then publish.
func (r *runSched) Complete(t *Task, res exp.JobResult) error {
	if r.opts.Store != nil {
		putSpan := r.span.StartChild("store.put")
		putSpan.SetAttr("hash", t.Hash)
		err := r.opts.Store.Put(t.Hash, res)
		putSpan.End()
		if err != nil {
			return err
		}
	}
	r.rs[t.Hash] = res
	r.executed++
	r.opts.Metrics.remaining(-1)
	return nil
}

// JobFailed aborts the run: the failure is deterministic, so the cell
// would fail identically anywhere.
func (r *runSched) JobFailed(t *Task, msg string) error {
	r.Fatal(fmt.Errorf("dispatch: job %s failed on %s: %s", t.Job, r.opts.Endpoint, msg))
	return r.err
}

// Fatal records the run's first fatal error; the lane stops right after.
func (r *runSched) Fatal(err error) {
	if r.err == nil {
		r.err = err
	}
}
