// The /v2 flow API: the versioned HTTP contract aligned with the
// session-based als/v2 package. It exposes a run the way the optimizer
// produces it — live Server-Sent Events (per-iteration progress, every
// improved solution, a terminal event), a trade-off front of solutions in
// the result, paginated job listing, and machine-readable error codes
// mapped from the als sentinel errors with errors.Is (never by matching
// error prose). It shares the job table, the worker pool and the
// content-hash cache with the worker job API (worker.go), so a cell
// submitted on either is deduplicated against both.

package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	als "repro"
)

// SolutionView is the wire form of one trade-off front solution.
type SolutionView struct {
	RatioCPD float64 `json:"ratio_cpd"`
	Err      float64 `json:"err"`
	Area     float64 `json:"area"`
}

// JobViewV2 is the /v2 snapshot of one job: the worker job API's JobView
// plus the run's solution front. Keeping the front out of JobView keeps
// /v1/jobs responses unchanged.
type JobViewV2 struct {
	JobView
	Front []SolutionView `json:"front,omitempty"`
}

// JobPage is one page of the /v2 job listing, in submission order.
type JobPage struct {
	Jobs   []JobViewV2 `json:"jobs"`
	Total  int         `json:"total"`
	Offset int         `json:"offset"`
	Limit  int         `json:"limit"`
	// NextOffset is set while more jobs follow this page.
	NextOffset *int `json:"next_offset,omitempty"`
}

// Machine-readable /v2 error codes. Clients (and the tests) branch on
// these; the accompanying message stays free-form human text.
const (
	CodeInvalidRequest   = "invalid_request"
	CodeUnknownBenchmark = "unknown_benchmark"
	CodeUnknownJob       = "unknown_job"
	CodeQueueFull        = "queue_full"
	CodeDraining         = "draining"
	CodeNotReady         = "not_ready"
	CodeInfeasible       = "infeasible"
	CodeJobFailed        = "job_failed"
	CodeJobCancelled     = "job_cancelled"
)

// ErrorBody is the /v2 error envelope: {"error": {"code": ..., "message": ...}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// ErrorInfo carries one structured API error.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// failCodeFor classifies a flow failure by its sentinel, for the /v2
// result endpoint's status mapping.
func failCodeFor(err error) string {
	if errors.Is(err, als.ErrInfeasible) {
		return CodeInfeasible
	}
	return CodeJobFailed
}

// frontKey derives the store key a job's solution front persists under.
// Job hashes are bare hex, so the suffixed key can never collide with
// one, and sweep tooling — which only ever looks up job hashes — skips
// front records entirely.
func frontKey(hash string) string { return hash + "/front" }

// Event type names of the /v2 SSE stream (terminal events are named
// after the job's final status: "done", "failed", "cancelled").
const (
	EventTypeProgress = "progress"
	EventTypeSolution = "solution"
)

// JobEvent is one live /v2 stream event; exactly one payload field is
// set, selected by Type. Terminal events (Type done/failed/cancelled)
// carry the full job view.
type JobEvent struct {
	Type     string
	Progress *Progress
	Solution *SolutionView
	Job      *JobViewV2
}

func (ev JobEvent) data() any {
	switch {
	case ev.Progress != nil:
		return ev.Progress
	case ev.Solution != nil:
		return ev.Solution
	}
	return ev.Job
}

// terminal reports whether the event ends its stream.
func (ev JobEvent) terminal() bool { return ev.Job != nil }

// broadcastLocked fans one event out to the job's subscribers without
// blocking: a slow consumer loses intermediate events (each progress
// event is a full snapshot, so catching up is lossless), never the
// terminal notification, which travels by channel close. s.mu held.
func (s *Server) broadcastLocked(j *jobState, ev JobEvent) {
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// closeSubsLocked ends every subscription of a job that just reached a
// terminal state: it closes the job's done channel, releasing the result
// polls held on it, and delivers the terminal event (with the final job
// view) into each event channel before closing it. The snapshot is taken
// here, not in the SSE handler after the close, because the job may be
// evicted from the table the instant the lock drops — a subscriber must
// still get its terminal event. Every channel send in the package happens
// under s.mu, so after dropping one buffered event there is always room
// for the terminal one. s.mu held.
func (s *Server) closeSubsLocked(j *jobState) {
	close(j.done)
	if len(j.subs) > 0 {
		v := s.viewV2Locked(j)
		ev := JobEvent{Type: string(j.status), Job: &v}
		for ch := range j.subs {
			select {
			case ch <- ev:
			default:
				select { // full: drop the oldest event to make room
				case <-ch:
				default:
				}
				select {
				case ch <- ev:
				default:
				}
			}
			close(ch)
		}
		s.metrics.sseSubscribers.Add(-int64(len(j.subs)))
	}
	j.subs = nil
}

// subscribe registers a live event subscription for a job. For a job
// already terminal (tombstoned ones included) it returns a nil channel
// and the terminal event as the snapshot; otherwise the snapshot replays
// the job's current progress so a mid-run subscriber starts consistent.
func (s *Server) subscribe(id string) (ch chan JobEvent, snapshot []JobEvent, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, live := s.jobs[id]
	if !live || j.status.terminal() {
		v, found := s.lookupLocked(id)
		if !found {
			return nil, nil, false
		}
		return nil, []JobEvent{{Type: string(v.Status), Job: &v}}, true
	}
	if j.progress.Total != 0 {
		p := j.progress
		snapshot = append(snapshot, JobEvent{Type: EventTypeProgress, Progress: &p})
	}
	ch = make(chan JobEvent, 256)
	if j.subs == nil {
		j.subs = map[chan JobEvent]struct{}{}
	}
	j.subs[ch] = struct{}{}
	s.metrics.sseSubscribers.Inc()
	return ch, snapshot, true
}

// unsubscribe drops a subscription whose consumer went away (client
// disconnect); a no-op after the job terminated and closed it.
func (s *Server) unsubscribe(id string, ch chan JobEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok && j.subs != nil {
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			s.metrics.sseSubscribers.Dec()
		}
	}
}

// JobV2 returns a point-in-time /v2 view of one job. Terminal jobs that
// were evicted from the table — or finished by a previous process and
// recovered from the WAL's job snapshot — resolve to a synthesized view
// from their tombstone: identity and final status survive, and a done
// job's result is re-read from the persistent store; per-run detail
// (spec, progress, timings, front) is gone.
func (s *Server) JobV2(id string) (JobViewV2, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(id)
}

// lookupLocked resolves a job ID: the live table first, then the
// tombstones; s.mu held.
func (s *Server) lookupLocked(id string) (JobViewV2, bool) {
	if j, ok := s.jobs[id]; ok {
		return s.viewV2Locked(j), true
	}
	if t, ok := s.tombs[id]; ok {
		return JobViewV2{JobView: s.tombViewLocked(id, t)}, true
	}
	return JobViewV2{}, false
}

// JobsPage lists one page of jobs in submission order. A limit <= 0
// selects the default page size; limits beyond the maximum are clamped.
func (s *Server) JobsPage(offset, limit int) JobPage {
	const (
		defaultLimit = 50
		maxLimit     = 500
	)
	if limit <= 0 {
		limit = defaultLimit
	}
	if limit > maxLimit {
		limit = maxLimit
	}
	if offset < 0 {
		offset = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	page := JobPage{Jobs: []JobViewV2{}, Total: len(s.order), Offset: offset, Limit: limit}
	if offset < len(s.order) {
		end := offset + limit
		if end > len(s.order) {
			end = len(s.order)
		}
		for _, id := range s.order[offset:end] {
			page.Jobs = append(page.Jobs, s.viewV2Locked(s.jobs[id]))
		}
		if end < len(s.order) {
			page.NextOffset = &end
		}
	}
	return page
}

// viewV2Locked snapshots a job with its front; s.mu held.
func (s *Server) viewV2Locked(j *jobState) JobViewV2 {
	v := JobViewV2{JobView: s.viewLocked(j)}
	if len(j.front) > 0 {
		v.Front = append([]SolutionView(nil), j.front...)
	}
	return v
}

// registerV2 mounts the /v2 surface:
//
//	POST /v2/jobs              submit a flow (Request body) → JobViewV2
//	GET  /v2/jobs              paginated listing (?offset=&limit=) → JobPage
//	GET  /v2/jobs/{id}         one job's status, progress and front (an
//	                           evicted or pre-restart terminal job keeps
//	                           resolving from its tombstone, without front)
//	GET  /v2/jobs/{id}/events  live SSE stream (progress/solution events,
//	                           then one terminal done/failed/cancelled
//	                           event; terminal jobs get the terminal event
//	                           immediately)
//	GET  /v2/jobs/{id}/result  200 done (with front), 409 not ready,
//	                           422 infeasible, 410 failed/cancelled
//	POST /v2/jobs/{id}/cancel  cancel a queued or running job
//
// Errors are {"error": {"code", "message"}} envelopes; see the Code*
// constants.
func (s *Server) registerV2(mux *http.ServeMux) {
	mux.HandleFunc("POST /v2/jobs", s.handleV2Submit)
	mux.HandleFunc("GET /v2/jobs", s.handleV2List)
	mux.HandleFunc("GET /v2/jobs/{id}", s.handleV2Status)
	mux.HandleFunc("GET /v2/jobs/{id}/events", s.handleV2Events)
	mux.HandleFunc("GET /v2/jobs/{id}/result", s.handleV2Result)
	mux.HandleFunc("POST /v2/jobs/{id}/cancel", s.handleV2Cancel)
}

func writeV2Error(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, ErrorBody{Error: ErrorInfo{Code: code, Message: message}})
}

func (s *Server) handleV2Submit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
		return
	}
	v, err := s.Submit(r.Context(), req)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeV2Error(w, http.StatusServiceUnavailable, CodeQueueFull, err.Error())
	case errors.Is(err, ErrDraining):
		writeV2Error(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
	case errors.Is(err, als.ErrUnknownBenchmark):
		writeV2Error(w, http.StatusNotFound, CodeUnknownBenchmark, err.Error())
	case err != nil:
		writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest, err.Error())
	default:
		// Submit's view carries the per-submission cached/dedup flag the
		// job-table snapshot cannot know; the snapshot adds the front (and
		// is skipped entirely if the job was already evicted again).
		v2 := JobViewV2{JobView: v}
		if snap, ok := s.JobV2(v.ID); ok {
			snap.Cached = snap.Cached || v.Cached
			v2 = snap
		}
		if v2.Status == StatusDone {
			writeJSON(w, http.StatusOK, v2) // cache/dedup hit, result ready now
		} else {
			writeJSON(w, http.StatusAccepted, v2)
		}
	}
}

func (s *Server) handleV2List(w http.ResponseWriter, r *http.Request) {
	offset, limit := 0, 0
	q := r.URL.Query()
	for name, dst := range map[string]*int{"offset": &offset, "limit": &limit} {
		raw := q.Get(name)
		if raw == "" {
			continue
		}
		n, err := strconv.Atoi(raw)
		if err != nil || n < 0 {
			writeV2Error(w, http.StatusBadRequest, CodeInvalidRequest,
				fmt.Sprintf("service: %q must be a non-negative integer, got %q", name, raw))
			return
		}
		*dst = n
	}
	writeJSON(w, http.StatusOK, s.JobsPage(offset, limit))
}

func (s *Server) handleV2Status(w http.ResponseWriter, r *http.Request) {
	v, ok := s.JobV2(r.PathValue("id"))
	if !ok {
		writeV2Error(w, http.StatusNotFound, CodeUnknownJob, "service: unknown job")
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleV2Result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.JobV2(id)
	if !ok {
		writeV2Error(w, http.StatusNotFound, CodeUnknownJob, "service: unknown job")
		return
	}
	switch v.Status {
	case StatusDone:
		writeJSON(w, http.StatusOK, v)
	case StatusFailed:
		code := CodeJobFailed
		s.mu.Lock()
		if j, ok := s.jobs[id]; ok && j.failCode != "" {
			code = j.failCode
		}
		s.mu.Unlock()
		status := http.StatusGone
		if code == CodeInfeasible {
			status = http.StatusUnprocessableEntity
		}
		writeV2Error(w, status, code, v.Error)
	case StatusCancelled:
		writeV2Error(w, http.StatusGone, CodeJobCancelled, v.Error)
	default:
		writeV2Error(w, http.StatusConflict, CodeNotReady,
			fmt.Sprintf("service: job %s is %s; stream /v2/jobs/%s/events or retry later", id, v.Status, id))
	}
}

func (s *Server) handleV2Cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jv, ok := s.Cancel(id)
	if !ok {
		writeV2Error(w, http.StatusNotFound, CodeUnknownJob, "service: unknown job")
		return
	}
	v := JobViewV2{JobView: jv}
	if snap, ok := s.JobV2(id); ok {
		v = snap
	}
	writeJSON(w, http.StatusOK, v)
}

// handleV2Events streams a job's run as Server-Sent Events. The stream
// replays the current progress on connect, forwards live progress and
// improved-solution events, and always ends with one terminal event named
// after the job's final status whose data is the full JobViewV2 — a
// subscriber never needs to poll after the stream closes.
func (s *Server) handleV2Events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ch, snapshot, ok := s.subscribe(id)
	if !ok {
		writeV2Error(w, http.StatusNotFound, CodeUnknownJob, "service: unknown job")
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		if ch != nil {
			s.unsubscribe(id, ch)
		}
		writeV2Error(w, http.StatusInternalServerError, CodeInvalidRequest,
			"service: response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for _, ev := range snapshot {
		writeSSE(w, ev.Type, ev.data())
	}
	flusher.Flush()
	if ch == nil { // already terminal: the snapshot was the terminal event
		return
	}
	defer s.unsubscribe(id, ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				// The terminal event always precedes the close
				// (closeSubsLocked); reaching here without one means only
				// that this subscriber was dropped some other way.
				return
			}
			writeSSE(w, ev.Type, ev.data())
			flusher.Flush()
			if ev.terminal() {
				return
			}
		}
	}
}

// writeSSE emits one Server-Sent Event. json.Marshal output is a single
// line, so one data: field always suffices.
func writeSSE(w http.ResponseWriter, event string, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw = []byte(`{}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, raw)
}
