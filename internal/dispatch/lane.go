// The lane engine. A Lane drives one base URL through the worker job API
// — submit batches of specs, poll results by content hash, retry
// transient transport failures with capped exponential backoff, requeue
// cells the worker forgot or cancelled. Each poll sweep has a deadline
// one PollInterval after it starts: it polls the outstanding cells
// oldest-submitted first, asking the server to hold each poll (wait=)
// until the cell ends or the deadline passes, so a finished cell is seen
// the moment it ends and the lane refills from its scheduler right away.
// Its scheduling half sits behind a LaneScheduler with two
// implementations: Run's pending queue against one endpoint
// (dispatch.go), and the coordinator daemon's per-worker lanes over its
// shared weighted-fair queue (internal/coord), which add
// throughput-adaptive windows and work stealing. What the two share — the
// lane's context, its result store, its request ID and its parent span —
// are Lane fields.
package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

// Task is one schedulable cell: its job spec and the content hash that
// keys its result everywhere (store, worker job table, ResultSet).
type Task struct {
	Job  exp.Job
	Hash string
}

// LaneScheduler is the scheduling half of a lane: it feeds tasks in,
// receives results out, and decides how failures propagate. One
// scheduler instance is bound to one lane, so implementations carry the
// lane's identity themselves.
type LaneScheduler interface {
	// Next blocks until a task is available for this lane; ok=false shuts
	// the lane down cleanly (run finished, worker drained, …).
	Next() (t *Task, ok bool)
	// Fill returns more tasks without blocking, letting the lane batch
	// several cells into one submission and top up as cells finish. held
	// counts the cells the lane already holds (unsubmitted and
	// outstanding); the scheduler's cap counts them too — Run's is
	// SubmitBatch, an adaptive scheduler's the worker's observed
	// throughput.
	Fill(held int) []*Task
	// Offload hands unsubmitted tasks back when the worker reports a full
	// queue. Returning false keeps them lane-local (Run's single lane);
	// returning true lets an idle lane steal them (the coordinator's
	// shared queue).
	Offload(tasks []*Task) bool
	// Complete publishes one finished cell; a non-nil error is fatal to
	// the lane's run (e.g. the result could not be persisted).
	Complete(t *Task, r exp.JobResult) error
	// JobFailed reports a deterministic job failure (the cell would fail
	// identically anywhere). A non-nil return aborts the lane; nil lets it
	// continue with its other cells.
	JobFailed(t *Task, errMsg string) error
	// Fatal reports an error that poisons the whole run (incompatible
	// worker build, rejected batch, marshalling failure).
	Fatal(err error)
}

// errPermanent ends a lane whose scheduler already holds the cause (via
// Fatal or a non-nil JobFailed): an invalid spec, a deterministic job
// failure, a store write error. The lane stops; nothing retries.
var errPermanent = errors.New("dispatch: permanent failure")

// Lane drives one worker base URL. Configure the exported fields, then
// call Run from a single goroutine; all internal state is
// goroutine-local.
type Lane struct {
	Name        string // label for logs and metrics (usually the URL)
	Base        string // worker base URL, no trailing slash
	Client      *http.Client
	SubmitBatch int
	RetryBudget int
	Backoff     time.Duration
	MaxBackoff  time.Duration
	// PollInterval is the longest a finished cell can go unnoticed: one
	// poll sweep's deadline. A server that holds polls answers the cell
	// being waited on the moment it ends; against one that answers at
	// once (an older build), sweeps that finish nothing are paced one
	// PollInterval apart.
	PollInterval time.Duration
	Logger       *slog.Logger // nil discards
	Metrics      *Metrics
	Sched        LaneScheduler
	// Ctx governs the lane's lifetime (required): its cancellation stops
	// the lane between steps, cuts sleeps short and aborts in-flight
	// worker requests.
	Ctx context.Context
	// Store, when non-nil, is consulted before a 404 resubmission: a
	// worker that forgot a cell may have been beaten by another lane (or
	// another sweep) that already persisted it.
	Store *store.Store
	// RequestID is the X-Request-Id every worker request carries, so the
	// worker's logs grep by sweep or by lane.
	RequestID string
	// Span parents one child span per worker round trip, whose context
	// rides along as a traceparent header (nil is fine; spans are
	// nil-safe).
	Span *trace.Span

	// unsubmitted holds cells the worker has not accepted yet;
	// outstanding holds accepted cells, oldest submission first, until a
	// poll resolves them.
	unsubmitted []*Task
	outstanding []*Task
	// failures counts consecutive transport-level failures; any success
	// resets it, exceeding the retry budget kills the lane.
	failures int
	// resubmits counts cells this lane requeued because the worker forgot
	// or cancelled them. Only the first one logs (a worker restart
	// typically forgets a whole batch at once, and per-cell lines buried
	// the interesting logs); the rest ride the als_dispatch_resubmits_total
	// counter and the lane's exit summary.
	resubmits int
}

// Run drives the lane until the scheduler shuts it down, the run is
// cancelled, or the lane dies. It returns every task the lane still
// owned and, when the lane died (retry budget exhausted, worker
// draining), the cause — nil means a clean exit (the run is ending
// anyway, or the scheduler recorded a fatal error).
func (l *Lane) Run() ([]*Task, error) {
	if l.Logger == nil {
		l.Logger = slog.New(slog.DiscardHandler)
	}
	defer func() {
		if l.resubmits > 1 {
			l.Logger.Info("lane resubmitted cells", "lane", l.Name, "cells", l.resubmits)
		}
	}()
	for {
		if len(l.unsubmitted) == 0 && len(l.outstanding) == 0 {
			t, ok := l.Sched.Next()
			if !ok {
				return l.leftovers(), nil
			}
			l.unsubmitted = append(l.unsubmitted, t)
			l.refill()
		}
		if err := l.step(); err != nil {
			if errors.Is(err, errPermanent) {
				return l.leftovers(), nil // the scheduler already holds the cause
			}
			return l.leftovers(), err
		}
		if l.cancelled() {
			return l.leftovers(), nil
		}
	}
}

// cancelled reports whether the lane's context has ended.
func (l *Lane) cancelled() bool { return l.Ctx.Err() != nil }

// refill tops the lane up from its scheduler, which caps what the lane
// holds.
func (l *Lane) refill() {
	l.unsubmitted = append(l.unsubmitted, l.Sched.Fill(len(l.unsubmitted)+len(l.outstanding))...)
}

// sleep pauses between polls and backoffs, waking early on cancellation.
func (l *Lane) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-l.Ctx.Done():
	}
}

// newRequest builds one worker request under the lane's context, opens
// its round-trip span and stamps the correlation headers: the request ID
// for log grepping and, when the span is live, the traceparent the
// worker's middleware continues.
func (l *Lane) newRequest(method, path string, body io.Reader, span string) (*http.Request, *trace.Span, error) {
	req, err := http.NewRequestWithContext(l.Ctx, method, l.Base+path, body)
	if err != nil {
		return nil, nil, err
	}
	sp := l.Span.StartChild(span)
	sp.SetAttr("lane", l.Name)
	req.Header.Set("X-Request-Id", l.RequestID)
	if sc := sp.Context(); sc.Valid() {
		req.Header.Set("traceparent", sc.Traceparent())
	}
	return req, sp, nil
}

// lookup reads a finished cell from the lane's store, if it has one.
func (l *Lane) lookup(hash string) (exp.JobResult, bool) {
	if l.Store == nil {
		return exp.JobResult{}, false
	}
	var r exp.JobResult
	if ok, err := l.Store.Decode(hash, &r); err != nil || !ok {
		return exp.JobResult{}, false
	}
	return r, true
}

// leftovers collects everything the lane still owns, clearing its state.
func (l *Lane) leftovers() []*Task {
	out := append(append([]*Task(nil), l.unsubmitted...), l.outstanding...)
	l.unsubmitted, l.outstanding = nil, nil
	return out
}

// step advances the lane one round: submit what the worker will take,
// then sweep outstanding results.
func (l *Lane) step() error {
	if len(l.unsubmitted) > 0 {
		if err := l.submit(); err != nil {
			return err
		}
	}
	if len(l.outstanding) > 0 {
		return l.poll()
	}
	return nil
}

// transient handles one transport-level failure: back off and retry until
// the consecutive-failure budget is spent, then report the lane dead.
func (l *Lane) transient(op string, err error) error {
	l.failures++
	if l.failures > l.RetryBudget {
		return fmt.Errorf("%s failed %d consecutive time(s): %w", op, l.failures, err)
	}
	l.Metrics.retried(l.Name)
	backoff := l.Backoff << (l.failures - 1)
	if backoff > l.MaxBackoff {
		backoff = l.MaxBackoff
	}
	l.Logger.Warn("lane request failed; retrying", "lane", l.Name, "op", op,
		"attempt", l.failures, "attempts", l.RetryBudget+1, "backoff", backoff.String(), "error", err.Error())
	l.sleep(backoff)
	return nil
}

// complete publishes one finished cell through the scheduler, converting
// a publication failure into a run-fatal error, and counts it for the
// lane.
func (l *Lane) complete(t *Task, r exp.JobResult) error {
	if err := l.Sched.Complete(t, r); err != nil {
		l.Sched.Fatal(err)
		return errPermanent
	}
	l.Metrics.completed(l.Name)
	return nil
}

// submit offers the worker one batch of specs. The accepted prefix moves
// to outstanding; on queue-full the remainder waits for a later round or
// is offloaded back to the scheduler (the worker is alive, just
// saturated), while draining and validation failures are terminal for
// the lane and run respectively.
func (l *Lane) submit() error {
	n := min(len(l.unsubmitted), l.SubmitBatch)
	batch := l.unsubmitted[:n]
	jobs := make([]exp.Job, n)
	for i, t := range batch {
		jobs[i] = t.Job
	}
	body, err := json.Marshal(service.BatchRequest{Jobs: jobs})
	if err != nil {
		l.Sched.Fatal(fmt.Errorf("dispatch: marshal batch: %w", err))
		return errPermanent
	}
	req, sp, err := l.newRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body), "dispatch.submit")
	if err != nil {
		l.Sched.Fatal(err)
		return errPermanent
	}
	req.Header.Set("Content-Type", "application/json")
	sp.SetAttr("jobs", n)
	resp, err := l.Client.Do(req)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		if l.cancelled() {
			return nil
		}
		return l.transient("submit", err)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	resp.Body.Close()
	sp.SetAttr("http.status", resp.StatusCode)
	sp.End()
	if err != nil {
		return l.transient("submit", err)
	}

	switch resp.StatusCode {
	case http.StatusOK, http.StatusServiceUnavailable:
		var br service.BatchResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			return l.transient("submit", fmt.Errorf("undecodable response: %w", err))
		}
		if len(br.Jobs) > len(batch) {
			return l.transient("submit", fmt.Errorf("worker accepted %d of %d jobs", len(br.Jobs), len(batch)))
		}
		for i, v := range br.Jobs {
			if v.Hash != batch[i].Hash {
				l.Sched.Fatal(fmt.Errorf("dispatch: %s: job %s hashed to %.12s… on the worker, %.12s… here — incompatible worker build",
					l.Name, batch[i].Job, v.Hash, batch[i].Hash))
				return errPermanent
			}
			l.outstanding = append(l.outstanding, batch[i])
		}
		l.unsubmitted = l.unsubmitted[len(br.Jobs):]
		if resp.StatusCode == http.StatusServiceUnavailable {
			if br.Reason == service.ReasonDraining {
				return fmt.Errorf("worker is draining: %s", br.Error)
			}
			// Queue full: not a failure — the worker is alive and will make
			// room as it finishes cells. Offer the remainder back to the
			// scheduler so an idle lane can steal it; otherwise let the
			// poll pace the next attempt.
			l.failures = 0
			if len(l.unsubmitted) > 0 && l.Sched.Offload(l.unsubmitted) {
				l.unsubmitted = nil
			}
			if len(l.outstanding) == 0 {
				l.sleep(l.PollInterval)
			}
			return nil
		}
		l.failures = 0
		return nil
	case http.StatusBadRequest:
		l.Sched.Fatal(fmt.Errorf("dispatch: %s rejected batch: %s", l.Name, errorBody(raw)))
		return errPermanent
	default:
		return l.transient("submit", fmt.Errorf("HTTP %d: %s", resp.StatusCode, errorBody(raw)))
	}
}

// poll sweeps the outstanding cells once, oldest submission first. The
// sweep's deadline is one PollInterval after it starts, and each poll
// asks the server to hold it (wait=) for the time left, so the cell being
// waited on is seen the moment it ends. A sweep that finished a cell
// (done or failed) tops the lane up from its scheduler; one that finished
// nothing pulls nothing — a lane waiting on a long cell leaves queued
// cells to lanes that can start them — and sleeps out any time left
// before its deadline, so a server that answers at once (an older build)
// sees at most one sweep per PollInterval.
//
// Finished cells complete, failed cells go through JobFailed
// (deterministic — the scheduler decides whether that aborts everything),
// a 404 — a worker restarted or evicted between submit and poll — first
// consults the shared store (another lane may have persisted the cell
// already) and only then requeues it for resubmission.
func (l *Lane) poll() error {
	deadline := time.Now().Add(l.PollInterval)
	finished := 0
	for i := 0; i < len(l.outstanding); {
		if l.cancelled() {
			return nil
		}
		t := l.outstanding[i]
		hash := t.Hash
		path := "/v1/jobs/" + hash
		if wait := time.Until(deadline); wait > 0 {
			path += "?wait=" + wait.String()
		}
		req, sp, err := l.newRequest(http.MethodGet, path, nil, "dispatch.poll")
		if err != nil {
			l.Sched.Fatal(err)
			return errPermanent
		}
		sp.SetAttr("hash", hash)
		resp, err := l.Client.Do(req)
		if err != nil {
			sp.SetAttr("error", err.Error())
			sp.End()
			if l.cancelled() {
				return nil
			}
			return l.transient("poll", err)
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
		resp.Body.Close()
		sp.SetAttr("http.status", resp.StatusCode)
		sp.End()
		if err != nil {
			return l.transient("poll", err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusNotFound:
			l.failures = 0
			l.outstanding = slices.Delete(l.outstanding, i, i+1)
			if r, ok := l.lookup(hash); ok {
				// The shared store already holds this cell — another lane
				// (or a previous run) computed it while the worker forgot
				// it. Complete from the store instead of re-running.
				l.Logger.Info("worker forgot a cell the shared store has; skipping resubmit", "lane", l.Name, "hash", hash)
				if err := l.complete(t, r); err != nil {
					return err
				}
				finished++
				continue
			}
			l.unsubmitted = append(l.unsubmitted, t)
			l.noteResubmit("worker forgot a cell (restarted?); resubmitting", hash)
			continue
		default:
			return l.transient("poll", fmt.Errorf("HTTP %d: %s", resp.StatusCode, errorBody(raw)))
		}
		var v service.JobView
		if err := json.Unmarshal(raw, &v); err != nil {
			return l.transient("poll", fmt.Errorf("undecodable job view: %w", err))
		}
		l.failures = 0
		switch v.Status {
		case service.StatusDone:
			if v.Result == nil {
				return l.transient("poll", fmt.Errorf("done view for %.12s… carries no result", hash))
			}
			l.outstanding = slices.Delete(l.outstanding, i, i+1)
			if err := l.complete(t, *v.Result); err != nil {
				return err
			}
			finished++
		case service.StatusFailed:
			l.outstanding = slices.Delete(l.outstanding, i, i+1)
			if err := l.Sched.JobFailed(t, v.Error); err != nil {
				return errPermanent
			}
			finished++
		case service.StatusCancelled:
			// The worker cancelled it (drain timeout, operator action); the
			// cell itself is fine — run it elsewhere.
			l.outstanding = slices.Delete(l.outstanding, i, i+1)
			l.unsubmitted = append(l.unsubmitted, t)
			l.noteResubmit("worker cancelled a cell; resubmitting", hash)
		default:
			i++ // still queued or running
		}
	}
	switch {
	case finished > 0 && !l.cancelled():
		l.refill()
	case finished == 0 && len(l.outstanding) > 0:
		l.sleep(time.Until(deadline))
	}
	return nil
}

// noteResubmit counts one requeued cell. The first one per lane logs msg
// (with a pointer to the counter); later ones stay quiet — a restarted
// worker forgets its whole outstanding set at once, and one line per cell
// used to drown the run log.
func (l *Lane) noteResubmit(msg, hash string) {
	l.Metrics.resubmitted(l.Name)
	l.resubmits++
	if l.resubmits == 1 {
		l.Logger.Info(msg, "lane", l.Name, "hash", hash,
			"note", "further resubmissions counted in als_dispatch_resubmits_total")
	}
}

// errorBody extracts {"error": ...} from a response body for messages.
func errorBody(raw []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(raw))
	if len(s) > 200 {
		s = s[:200] + "…"
	}
	if s == "" {
		return "(empty body)"
	}
	return s
}
