// Worker-facing job API: the endpoints a sweep client (internal/dispatch)
// and the cluster coordinator's lanes drive. Where the flow API (/v2/jobs)
// speaks the client-friendly Request schema and addresses jobs by
// server-assigned ID, the worker API speaks canonical exp.Job specs and
// addresses results by content hash — the same identity cmd/experiments
// and the store use — so any running alsd is a valid sweep endpoint with
// no extra configuration:
//
//	POST /v1/jobs        batch-submit job specs → BatchResponse
//	GET  /v1/jobs/{hash} status/result by content hash → JobView
//	GET  /healthz        readiness (shared with the flow API)
//
// A result poll may carry ?wait=<Go duration>: for a queued or running
// job the handler holds the request until the job ends, the wait (capped
// at MaxPollWait) elapses, the client goes away or the daemon begins
// shutting down, and then answers exactly what the poll without wait
// answers. The lane of internal/dispatch sets it to the time left in its
// poll sweep, so a finished cell is seen the moment it ends; a client
// that never sends it is answered at once, as before.

package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/exp"
)

// MaxBatchJobs bounds one batch submission; a coordinator with more cells
// submits several batches (and must anyway, to respect the queue depth).
const MaxBatchJobs = 256

// MaxPollWait caps the wait a result poll may ask for: a longer one is
// held for MaxPollWait, well inside the 30 s default client timeout of
// dispatch and alscoord.
const MaxPollWait = 20 * time.Second

// BatchRequest is the body of POST /v1/jobs.
type BatchRequest struct {
	Jobs []exp.Job `json:"jobs"`
}

// Machine-readable BatchResponse.Reason values for a 503. A coordinator
// must branch on these, not on the human-readable Error text: queue-full
// means "the worker is alive, resubmit after a backoff", draining means
// "this worker will never accept again, fail its cells over now".
const (
	ReasonQueueFull = "queue_full"
	ReasonDraining  = "draining"
)

// BatchResponse answers a batch submission. Jobs holds the accepted
// prefix of the request in order; when the queue filled (or the server
// began draining) mid-batch the response is 503, Reason carries the
// machine-readable cause (Error the human-readable one), and Jobs still
// lists what was accepted before the cut — submissions are idempotent by
// content hash (identical specs dedup), so a coordinator may simply
// resubmit the remainder after a backoff.
type BatchResponse struct {
	Jobs   []JobView `json:"jobs"`
	Reason string    `json:"reason,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// RequestFromJob maps a canonical job spec onto the submission request
// schema. validate() reconstructs the identical exp.Job from it (method,
// metric and scale names round-trip through their parsers, every numeric
// field is copied verbatim), so a spec submitted this way carries the same
// content hash the coordinator computed locally — the server's returned
// JobView.Hash is the coordinator's lookup key.
func RequestFromJob(j exp.Job) Request {
	return Request{
		Circuit:      j.Circuit,
		Method:       j.Method,
		Metric:       j.Metric,
		Budget:       j.Budget,
		Scale:        j.Scale,
		Seed:         j.Seed,
		DepthWeight:  j.DepthWeight,
		AreaConRatio: j.AreaConRatio,
		Population:   j.Population,
		Iterations:   j.Iterations,
		Vectors:      j.Vectors,
	}
}

// ValidateJobSpec reports whether a canonical job spec would be accepted
// by the worker job API (known circuit, parsable names, budgets and
// overrides within the resource caps). The dispatch coordinator runs it
// over the whole job set before anything goes on the wire, so a spec the
// fleet would 400 fails the run up front with a clear message instead of
// mid-sweep.
func ValidateJobSpec(j exp.Job) error {
	_, err := validate(RequestFromJob(j))
	return err
}

// CanonicalJobSpec validates a job spec and returns its canonical form
// plus the content hash every worker in the fleet will compute for it.
// Method, metric and scale names accept the same aliases the flow API
// does ("dcgwo", "sasimi", ...), but the HASH is always of the canonical
// spelling — an intake layer that indexes cells by hash MUST canonicalize
// first, or an alias-spelled submission gets filed under a hash no worker
// ever reports back.
func CanonicalJobSpec(j exp.Job) (exp.Job, string, error) {
	sp, err := validate(RequestFromJob(j))
	if err != nil {
		return exp.Job{}, "", err
	}
	return sp.job, sp.hash, nil
}

// jobDone returns the channel closed at the terminal transition of the
// live job for hash (already closed when it is terminal), or nil when no
// job in the table has that hash: a store-served or unknown hash is
// answered at once.
func (s *Server) jobDone(hash string) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.byHash[hash]; ok {
		return s.jobs[id].done
	}
	return nil
}

// JobByHash resolves a job by content hash: first against the live job
// table (latest submission wins, any status), then against the persistent
// store — so a worker restarted between submit and fetch, or one whose
// table evicted an old terminal job, still serves every result it ever
// persisted. A store-served view carries only Hash, Status done, Cached
// and the Result (the original spec was not retained).
func (s *Server) JobByHash(hash string) (JobView, bool) {
	s.mu.Lock()
	if id, ok := s.byHash[hash]; ok {
		v := s.viewLocked(s.jobs[id])
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()
	if s.store != nil {
		var r exp.JobResult
		if ok, err := s.store.Decode(hash, &r); err == nil && ok {
			return JobView{
				Hash:   hash,
				Status: StatusDone,
				Cached: true,
				Result: &r,
			}, true
		}
	}
	return JobView{}, false
}

// PollWait parses the optional wait query parameter of a result poll: a
// Go duration, absent meaning zero (answer at once). A malformed or
// negative value is an error, which the route answers with 400.
func PollWait(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("service: wait=%q is not a non-negative Go duration", raw)
	}
	return min(d, MaxPollWait), nil
}

// PollHolds parks held result polls. Beside the job's own end, the wait
// and the client's disconnect, it releases every hold when the
// http.Server serving it begins shutting down (Shutdown waits for active
// requests, so an unreleased hold would stall it) or when the daemon's
// own context ends. The zero value is ready to use; alsd's Server and
// alscoord's Coordinator each own one.
type PollHolds struct {
	mu sync.Mutex
	// shutdown holds one channel per http.Server that served a hold,
	// closed by that server's shutdown hook.
	shutdown map[*http.Server]chan struct{}
}

// Hold blocks until done is closed, wait elapses, the client goes away,
// the daemon's ctx ends or the http.Server serving r begins shutting
// down.
func (h *PollHolds) Hold(ctx context.Context, r *http.Request, done <-chan struct{}, wait time.Duration) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
	case <-r.Context().Done():
	case <-ctx.Done():
	case <-h.shuttingDown(r):
	}
}

// shuttingDown returns the channel closed when the http.Server serving r
// begins shutting down (nil, never ready, outside one). The first hold on
// a server registers its shutdown hook.
func (h *PollHolds) shuttingDown(r *http.Request) <-chan struct{} {
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	if srv == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	ch, ok := h.shutdown[srv]
	if !ok {
		if h.shutdown == nil {
			h.shutdown = map[*http.Server]chan struct{}{}
		}
		ch = make(chan struct{})
		h.shutdown[srv] = ch
		srv.RegisterOnShutdown(func() { close(ch) })
	}
	return ch
}
