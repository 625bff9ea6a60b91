package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	als "repro"
	"repro/internal/store"
)

// postV2 submits a request on the /v2 surface and decodes either the job
// view or the structured error body.
func postV2(t *testing.T, ts *httptest.Server, req Request) (JobViewV2, ErrorBody, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobViewV2
	var e ErrorBody
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return v, e, resp.StatusCode
}

// getV2 fetches a /v2 path and decodes it into out (or the error body on
// a non-2xx status), returning the status code.
func getV2(t *testing.T, ts *httptest.Server, path string, out any) (ErrorBody, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e ErrorBody
	if resp.StatusCode < 400 {
		if out != nil {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				t.Fatal(err)
			}
		}
	} else if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return e, resp.StatusCode
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes a /v2 events stream until the first terminal event
// (done/failed/cancelled) or EOF, with a hard timeout.
func readSSE(t *testing.T, url string) []sseEvent {
	t.Helper()
	client := &http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type = %q", ct)
	}
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == string(StatusDone) || cur.name == string(StatusFailed) || cur.name == string(StatusCancelled) {
					return events
				}
			}
			cur = sseEvent{}
		}
	}
	return events
}

// TestV2SSEStreamsFullRun subscribes to a queued job (the single worker
// is busy with an earlier job), so the stream must carry every progress
// event of the run from iteration 1, any improved-solution events, and a
// terminal done event holding the result and the front.
func TestV2SSEStreamsFullRun(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	// Occupy the single worker long enough for the SSE subscription to
	// attach while the watched job is still queued (submissions go through
	// Submit directly — on a loaded single-CPU machine even one HTTP
	// roundtrip can take tens of milliseconds).
	blocker := quickReq(50)
	blocker.Iterations = 300
	if _, err := s.Submit(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	watched := quickReq(51)
	watched.Iterations = 5
	v, err := s.Submit(context.Background(), watched)
	if err != nil {
		t.Fatal(err)
	}

	events := readSSE(t, ts.URL+"/v2/jobs/"+v.ID+"/events")
	var progress, solutions int
	var terminal *sseEvent
	for i := range events {
		switch events[i].name {
		case EventTypeProgress:
			progress++
		case EventTypeSolution:
			solutions++
		case string(StatusDone):
			terminal = &events[i]
		default:
			t.Errorf("unexpected event %q", events[i].name)
		}
	}
	if progress != watched.Iterations {
		t.Errorf("progress events = %d, want %d (one per iteration)", progress, watched.Iterations)
	}
	if solutions < 1 {
		t.Error("no improved-solution events")
	}
	if terminal == nil {
		t.Fatal("stream ended without a done event")
	}
	var final JobViewV2
	if err := json.Unmarshal([]byte(terminal.data), &final); err != nil {
		t.Fatalf("terminal event data: %v", err)
	}
	if final.Status != StatusDone || final.Result == nil || len(final.Front) < 1 {
		t.Errorf("terminal view incomplete: status=%s result=%v front=%d", final.Status, final.Result, len(final.Front))
	}
	for i := 1; i < len(final.Front); i++ {
		if final.Front[i].RatioCPD < final.Front[i-1].RatioCPD {
			t.Errorf("front not sorted at %d", i)
		}
	}
}

// TestV2SSETerminalJobRepliesImmediately: subscribing to a finished job
// yields exactly the terminal event, no waiting.
func TestV2SSETerminalJobRepliesImmediately(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	v, _, _ := postV2(t, ts, quickReq(60))
	waitDone(t, ts, v.ID)

	events := readSSE(t, ts.URL+"/v2/jobs/"+v.ID+"/events")
	if len(events) != 1 || events[0].name != string(StatusDone) {
		t.Fatalf("events = %+v, want exactly one done event", events)
	}
}

// TestV2ResultCarriesFront: the /v2 result of a finished job includes the
// trade-off front.
func TestV2ResultCarriesFront(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	v, _, _ := postV2(t, ts, quickReq(61))
	waitDone(t, ts, v.ID)

	var v2 JobViewV2
	if _, code := getV2(t, ts, "/v2/jobs/"+v.ID+"/result", &v2); code != http.StatusOK {
		t.Fatalf("v2 result status = %d", code)
	}
	if len(v2.Front) < 1 {
		t.Fatal("v2 result has no front")
	}
	if best := v2.Front[0]; v2.Result == nil || best.Err > 0.0244 {
		t.Errorf("front best outside budget: %+v", best)
	}
}

// TestV2Pagination covers the paged listing: totals, page boundaries,
// next_offset, clamping, and bad parameters.
func TestV2Pagination(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16})
	const n = 5
	for i := 0; i < n; i++ {
		req := quickReq(int64(70 + i))
		if _, err := s.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}

	var page JobPage
	if _, code := getV2(t, ts, "/v2/jobs?limit=2", &page); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	if page.Total != n || len(page.Jobs) != 2 || page.NextOffset == nil || *page.NextOffset != 2 {
		t.Fatalf("first page = total %d, %d jobs, next %v", page.Total, len(page.Jobs), page.NextOffset)
	}
	first := page.Jobs[0].ID

	page = JobPage{} // fresh decode target: next_offset is omitempty
	if _, code := getV2(t, ts, "/v2/jobs?offset=4&limit=2", &page); code != http.StatusOK {
		t.Fatalf("last page status = %d", code)
	}
	if len(page.Jobs) != 1 || page.NextOffset != nil {
		t.Fatalf("last page = %d jobs, next %v", len(page.Jobs), page.NextOffset)
	}

	page = JobPage{}
	if _, code := getV2(t, ts, "/v2/jobs?offset=99", &page); code != http.StatusOK || len(page.Jobs) != 0 {
		t.Fatalf("beyond-end page: code %d, %d jobs", code, len(page.Jobs))
	}

	page = JobPage{}
	if _, code := getV2(t, ts, "/v2/jobs", &page); code != http.StatusOK || len(page.Jobs) != n {
		t.Fatalf("default page: code %d, %d jobs", code, len(page.Jobs))
	}
	if page.Jobs[0].ID != first {
		t.Error("pages not in stable submission order")
	}

	e, code := getV2(t, ts, "/v2/jobs?limit=bogus", nil)
	if code != http.StatusBadRequest || e.Error.Code != CodeInvalidRequest {
		t.Errorf("bad limit: code %d, error %+v", code, e.Error)
	}
	if _, code := getV2(t, ts, "/v2/jobs?offset=-1", nil); code != http.StatusBadRequest {
		t.Errorf("negative offset: code %d", code)
	}
}

// TestV2ErrorCodes pins the structured error mapping of the /v2 surface.
func TestV2ErrorCodes(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})

	_, e, code := postV2(t, ts, Request{Circuit: "c4242", Metric: "ER", Budget: 0.05})
	if code != http.StatusNotFound || e.Error.Code != CodeUnknownBenchmark {
		t.Errorf("unknown benchmark: code %d, error %+v", code, e.Error)
	}

	_, e, code = postV2(t, ts, Request{Circuit: "c880", Metric: "MAE", Budget: 0.05})
	if code != http.StatusBadRequest || e.Error.Code != CodeInvalidRequest {
		t.Errorf("bad metric: code %d, error %+v", code, e.Error)
	}

	e, code = getV2(t, ts, "/v2/jobs/f999999", nil)
	if code != http.StatusNotFound || e.Error.Code != CodeUnknownJob {
		t.Errorf("unknown job: code %d, error %+v", code, e.Error)
	}

	// Result of a still-pending job: 409 not_ready. Block the single
	// worker with a long job so the probed job stays queued across the
	// HTTP roundtrips (which contend with the compute-bound worker for
	// CPU).
	blocker := quickReq(80)
	blocker.Iterations = 500
	if _, err := s.Submit(context.Background(), blocker); err != nil {
		t.Fatal(err)
	}
	pending, err := s.Submit(context.Background(), quickReq(81))
	if err != nil {
		t.Fatal(err)
	}
	e, code = getV2(t, ts, "/v2/jobs/"+pending.ID+"/result", nil)
	if code != http.StatusConflict || e.Error.Code != CodeNotReady {
		t.Errorf("pending result: code %d, error %+v", code, e.Error)
	}

	// Cancelled while queued: 410 job_cancelled.
	resp, err := http.Post(ts.URL+"/v2/jobs/"+pending.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	e, code = getV2(t, ts, "/v2/jobs/"+pending.ID+"/result", nil)
	if code != http.StatusGone || e.Error.Code != CodeJobCancelled {
		t.Errorf("cancelled result: code %d, error %+v", code, e.Error)
	}

	// An infeasible failure maps to 422 with its own code. The default
	// optimizers cannot produce one (the accurate circuit is always
	// feasible), so fabricate the terminal state the runner would record.
	s.mu.Lock()
	s.jobs["fxinfeasible"] = &jobState{
		id:       "fxinfeasible",
		spec:     &flowSpec{},
		status:   StatusFailed,
		errMsg:   "no feasible circuit",
		failCode: failCodeFor(fmt.Errorf("wrap: %w", als.ErrInfeasible)),
	}
	s.order = append(s.order, "fxinfeasible")
	s.mu.Unlock()
	e, code = getV2(t, ts, "/v2/jobs/fxinfeasible/result", nil)
	if code != http.StatusUnprocessableEntity || e.Error.Code != CodeInfeasible {
		t.Errorf("infeasible result: code %d, error %+v", code, e.Error)
	}
}

// TestFailCodeFor pins the sentinel classification (errors.Is, not prose).
func TestFailCodeFor(t *testing.T) {
	if c := failCodeFor(fmt.Errorf("outer: %w", als.ErrInfeasible)); c != CodeInfeasible {
		t.Errorf("wrapped ErrInfeasible → %q", c)
	}
	if c := failCodeFor(errors.New("als: no feasible approximate circuit under the error budget")); c != CodeJobFailed {
		t.Errorf("prose lookalike must NOT classify as infeasible, got %q", c)
	}
}

// TestV2FrontPersistsAcrossRestart: a daemon restarted over the same
// store serves cached /v2 results complete with their fronts.
func TestV2FrontPersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s1, ts1 := newTestServer(t, Options{Workers: 1, Store: st})
	v, _, _ := postV2(t, ts1, quickReq(90))
	waitDone(t, ts1, v.ID)
	var withFront JobViewV2
	if _, code := getV2(t, ts1, "/v2/jobs/"+v.ID+"/result", &withFront); code != http.StatusOK {
		t.Fatalf("first result status = %d", code)
	}
	if len(withFront.Front) < 1 {
		t.Fatal("first run produced no front")
	}
	ts1.Close()
	s1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, ts2 := newTestServer(t, Options{Workers: 1, Store: st2})
	cached, _, code := postV2(t, ts2, quickReq(90))
	if code != http.StatusOK || !cached.Cached {
		t.Fatalf("resubmit after restart: code %d, cached %v", code, cached.Cached)
	}
	if len(cached.Front) != len(withFront.Front) {
		t.Errorf("cached front size = %d, want %d", len(cached.Front), len(withFront.Front))
	}
}
