package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// maxBodyBytes bounds a submission body (the verilog source dominates).
const maxBodyBytes = MaxVerilogBytes + 1<<20

// Handler returns the HTTP/JSON API. Flow clients use /v2 (registerV2 in
// v2.go): submission, SSE event streaming, solution fronts, paginated
// listing and structured error codes. Beside it sit the worker-facing job
// API (worker.go) that sweep clients and the cluster coordinator drive:
//
//	POST /v1/jobs              batch-submit exp.Job specs → BatchResponse
//	GET  /v1/jobs/{hash}       status/result by content hash → JobView;
//	                           ?wait=<duration> holds it until the job
//	                           ends (worker.go)
//
// and the operational surface:
//
//	GET  /healthz              liveness + Stats counters
//	GET  /metrics              Prometheus text exposition (metrics.go)
//	GET  /debug/traces         recent spans, grouped by trace (404 when
//	                           Options.Tracer is nil; internal/trace)
//
// Every response is stamped with an X-Request-Id that also appears in the
// structured access log, and every request is counted/timed by route
// pattern (see instrument in metrics.go).
//
// No route writes the result store: results enter it only when a run
// finishes, here or in a process sharing its file.
//
// Errors outside /v2 are JSON objects {"error": "..."}: 400 malformed or
// invalid requests, 404 unknown hash, 503 queue full or draining.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleBatchSubmit)
	mux.HandleFunc("GET /v1/jobs/{hash}", s.handleJobByHash)
	s.registerV2(mux)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.metrics.registry.Handler())
	mux.Handle("GET /debug/traces", s.tracer.Handler())
	return s.instrument(mux)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the response is already committed
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleBatchSubmit accepts job specs in order until one is rejected: an
// invalid spec fails the whole batch with 400 (it would be invalid on
// every worker — the coordinator must not retry it), while queue-full and
// draining return 503 with the accepted prefix so the coordinator can
// resubmit the remainder after a backoff.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("service: batch has no jobs"))
		return
	}
	if len(req.Jobs) > MaxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: batch of %d jobs exceeds the %d-job limit", len(req.Jobs), MaxBatchJobs))
		return
	}
	var resp BatchResponse
	for i, j := range req.Jobs {
		v, err := s.Submit(r.Context(), RequestFromJob(j))
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			resp.Reason = ReasonQueueFull
			if errors.Is(err, ErrDraining) {
				resp.Reason = ReasonDraining
			}
			resp.Error = err.Error()
			writeJSON(w, http.StatusServiceUnavailable, resp)
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: batch job %d (%s): %w", i, j, err))
			return
		}
		resp.Jobs = append(resp.Jobs, v)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobByHash answers a result poll, first holding it while the job
// runs when it carries wait (worker.go).
func (s *Server) handleJobByHash(w http.ResponseWriter, r *http.Request) {
	wait, err := PollWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash := r.PathValue("hash")
	if done := s.jobDone(hash); wait > 0 && done != nil {
		s.holds.Hold(s.baseCtx, r, done, wait)
	}
	v, ok := s.JobByHash(hash)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("service: unknown job hash"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"stats":  s.Stats(),
	})
}
