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

package service

import (
	"repro/internal/exp"
)

// MaxBatchJobs bounds one batch submission; a coordinator with more cells
// submits several batches (and must anyway, to respect the queue depth).
const MaxBatchJobs = 256

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
