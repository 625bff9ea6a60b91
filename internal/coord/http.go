// The coordinator's HTTP surface. Three audiences share one handler:
//
// Workers (cluster membership):
//
//	POST /cluster/register    {"url":"http://me:8080"} → {"id","heartbeat_interval"}
//	POST /cluster/heartbeat   {"id","queue_depth","evals_total","evals_per_sec"}
//	                          404 ⇒ the coordinator forgot you: re-register
//	POST /cluster/deregister  {"id"} — clean shutdown
//	GET  /cluster/workers     live fleet snapshot (operator surface)
//
// Sweep clients (the same worker job API every alsd serves, so
// `experiments -coord=URL` drives a coordinator and an alsd alike):
//
//	POST /v1/jobs             batch submit → accepted-prefix BatchResponse
//	GET  /v1/jobs/{hash}      status/result by content hash; ?wait=<duration>
//	                          holds it until the cell ends (the same
//	                          held poll as alsd's, service.PollWait)
//
// /v2 intake (batch + webhook, additive surface):
//
//	POST /v2/batches          {"jobs":[…],"tenant","priority"} → 202,
//	                          deduped against the shared store up front
//	POST /v2/subscriptions    {"url","secret","hashes":[…]} → 201; each
//	                          result POSTs back once, HMAC-signed
//
// Plus GET /healthz, /metrics and /debug/traces, like every daemon here.
package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/exp"
	"repro/internal/service"
)

// maxBodyBytes caps request bodies, mirroring the service's guard.
const maxBodyBytes = 16 << 20

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

// Handler returns the coordinator's full route table.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/register", c.handleRegister)
	mux.HandleFunc("POST /cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /cluster/deregister", c.handleDeregister)
	mux.HandleFunc("GET /cluster/workers", c.handleWorkers)
	mux.HandleFunc("POST /v1/jobs", c.handleBatchSubmit)
	mux.HandleFunc("GET /v1/jobs/{hash}", c.handleJobByHash)
	mux.HandleFunc("POST /v2/batches", c.handleBatch)
	mux.HandleFunc("POST /v2/subscriptions", c.handleSubscribe)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.Handle("GET /metrics", c.met.registry.Handler())
	mux.Handle("GET /debug/traces", c.opts.Tracer.Handler())
	return mux
}

// RegisterRequest is the body of POST /cluster/register.
type RegisterRequest struct {
	URL string `json:"url"`
}

// RegisterResponse tells the worker its id and the heartbeat cadence the
// sweeper expects.
type RegisterResponse struct {
	ID                string `json:"id"`
	HeartbeatInterval string `json:"heartbeat_interval"`
	ExpireAfter       int    `json:"expire_after"`
}

// HeartbeatRequest is the body of POST /cluster/heartbeat: the worker's
// id plus the load figures its own telemetry counters report.
type HeartbeatRequest struct {
	ID          string  `json:"id"`
	QueueDepth  int     `json:"queue_depth"`
	EvalsTotal  int64   `json:"evals_total"`
	EvalsPerSec float64 `json:"evals_per_sec"`
}

func decode[T any](w http.ResponseWriter, r *http.Request, into *T) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	id, interval, err := c.Register(req.URL)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, RegisterResponse{
			ID:                id,
			HeartbeatInterval: interval.String(),
			ExpireAfter:       c.opts.ExpireAfter,
		})
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decode(w, r, &req) {
		return
	}
	if !c.Heartbeat(req.ID, req.QueueDepth, req.EvalsTotal, req.EvalsPerSec) {
		writeError(w, http.StatusNotFound, fmt.Errorf("coord: unknown worker %q (re-register)", req.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if !decode(w, r, &req) {
		return
	}
	if !c.Deregister(req.ID) {
		writeError(w, http.StatusNotFound, fmt.Errorf("coord: unknown worker %q", req.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.Workers())
}

// handleBatchSubmit is the worker-job-API intake: same request/response
// contract as the alsd endpoint (accepted prefix, 400 on the first
// invalid spec, 503 + reason on quota/draining), so dispatch.Lane drives
// a coordinator exactly like a worker. Tenant and priority ride optional
// headers; absent means the default tenant at priority 0.
func (c *Coordinator) handleBatchSubmit(w http.ResponseWriter, r *http.Request) {
	var req service.BatchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("coord: batch has no jobs"))
		return
	}
	if len(req.Jobs) > service.MaxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("coord: batch of %d jobs exceeds the %d-job limit", len(req.Jobs), service.MaxBatchJobs))
		return
	}
	tenant := r.Header.Get("X-ALS-Tenant")
	priority := 0
	fmt.Sscanf(r.Header.Get("X-ALS-Priority"), "%d", &priority) //nolint:errcheck // absent/garbage means 0
	views, reason, err := c.Submit(req.Jobs, tenant, priority)
	resp := service.BatchResponse{Jobs: views}
	switch {
	case reason != "":
		resp.Reason = reason
		resp.Error = err.Error()
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleJobByHash answers a result poll, first holding it while the cell
// is queued or running when it carries wait: the lane that drives a
// coordinator sees a cell the moment its worker's result lands here.
func (c *Coordinator) handleJobByHash(w http.ResponseWriter, r *http.Request) {
	wait, err := service.PollWait(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash := r.PathValue("hash")
	if done := c.cellDone(hash); wait > 0 && done != nil {
		c.holds.Hold(c.baseCtx, r, done, wait)
	}
	v, ok := c.JobByHash(hash)
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("coord: unknown job hash"))
		return
	}
	writeJSON(w, http.StatusOK, v)
}

// BatchIntake is the body of POST /v2/batches.
type BatchIntake struct {
	Jobs     []exp.Job `json:"jobs"`
	Tenant   string    `json:"tenant,omitempty"`
	Priority int       `json:"priority,omitempty"`
}

// BatchView answers a /v2 batch: one row per accepted job, counts for
// the intake outcome split.
type BatchView struct {
	Accepted int            `json:"accepted"`
	Cached   int            `json:"cached"`
	Jobs     []BatchJobView `json:"jobs"`
}

// BatchJobView is one accepted job of a /v2 batch.
type BatchJobView struct {
	Hash   string         `json:"hash"`
	Status service.Status `json:"status"`
}

func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchIntake
	if !decode(w, r, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("coord: batch has no jobs"))
		return
	}
	if len(req.Jobs) > service.MaxBatchJobs {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("coord: batch of %d jobs exceeds the %d-job limit", len(req.Jobs), service.MaxBatchJobs))
		return
	}
	views, reason, err := c.Submit(req.Jobs, req.Tenant, req.Priority)
	switch {
	case reason != "":
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":    err.Error(),
			"reason":   reason,
			"accepted": len(views),
		})
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bv := BatchView{Accepted: len(views)}
	for _, v := range views {
		if v.Cached {
			bv.Cached++
		}
		bv.Jobs = append(bv.Jobs, BatchJobView{Hash: v.Hash, Status: v.Status})
	}
	writeJSON(w, http.StatusAccepted, bv)
}

// SubscribeRequest is the body of POST /v2/subscriptions.
type SubscribeRequest struct {
	URL    string   `json:"url"`
	Secret string   `json:"secret"`
	Hashes []string `json:"hashes"`
}

func (c *Coordinator) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	var req SubscribeRequest
	if !decode(w, r, &req) {
		return
	}
	id, ready, err := c.Subscribe(req.URL, req.Secret, req.Hashes)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusCreated, map[string]any{
			"id":           id,
			"hashes":       len(req.Hashes),
			"already_done": ready,
		})
	}
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	workers, cells := len(c.workers), len(c.cells)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": workers,
		"cells":   cells,
		"queued":  c.queue.len(),
	})
}
