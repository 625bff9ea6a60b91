package service

import (
	"bytes"
	"context"
	"encoding/json"
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

// quickReq is the canonical fast test job: Adder16 under the TABLE III
// NMED constraint at quick scale.
func quickReq(seed int64) Request {
	return Request{Circuit: "Adder16", Metric: "nmed", Budget: 0.0244, Seed: seed}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// waitDone polls a job on /v2 until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobViewV2 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v JobViewV2
		if _, code := getV2(t, ts, "/v2/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("job %s status = %d", id, code)
		}
		if v.Status.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobViewV2{}
}

// TestSubmitMatchesDirectFlow is the end-to-end identity check: an
// HTTP-submitted quick-scale flow must return metrics identical to a
// direct als.Flow call at the same seed.
func TestSubmitMatchesDirectFlow(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	v, _, code := postV2(t, ts, quickReq(7))
	if code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", code)
	}
	if v.Status != StatusQueued && v.Status != StatusRunning {
		t.Fatalf("fresh submission status = %q", v.Status)
	}
	got := waitDone(t, ts, v.ID)
	if got.Status != StatusDone || got.Result == nil {
		t.Fatalf("job ended %q (error %q), want done with result", got.Status, got.Error)
	}

	want, err := als.Flow(als.Benchmark("Adder16"), als.NewLibrary(), als.FlowConfig{
		Metric: als.MetricNMED, ErrorBudget: 0.0244, Scale: als.ScaleQuick, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.RatioCPD != want.RatioCPD || got.Result.Err != want.Err ||
		got.Result.Evaluations != want.Evaluations {
		t.Errorf("HTTP flow = (ratio %v, err %v, evals %d); direct flow = (%v, %v, %d)",
			got.Result.RatioCPD, got.Result.Err, got.Result.Evaluations,
			want.RatioCPD, want.Err, want.Evaluations)
	}

	// The result endpoint serves the finished job.
	if _, code := getV2(t, ts, "/v2/jobs/"+v.ID+"/result", nil); code != http.StatusOK {
		t.Fatalf("result status = %d, want 200", code)
	}
	// Progress must have reached the final iteration of the quick preset.
	if got.Progress == nil || got.Progress.Iter != got.Progress.Total || got.Progress.Total != 8 {
		t.Errorf("final progress = %+v, want iter == total == 8", got.Progress)
	}
}

// TestDuplicateServedFromCache covers in-process dedup, the persistent
// store, and a daemon restart: the second identical submission and every
// submission to a fresh server over the same store must be answered
// without recomputation.
func TestDuplicateServedFromCache(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Options{Store: st})

	first, _, _ := postV2(t, ts, quickReq(1))
	if first.Cached {
		t.Fatal("first submission must not be cached")
	}
	done := waitDone(t, ts, first.ID)
	if done.Status != StatusDone {
		t.Fatalf("first job ended %q: %s", done.Status, done.Error)
	}

	// Identical second POST: answered immediately from the finished job.
	second, _, code := postV2(t, ts, quickReq(1))
	if code != http.StatusOK || second.Status != StatusDone || !second.Cached {
		t.Fatalf("duplicate: code=%d status=%q cached=%v, want 200/done/true", code, second.Status, second.Cached)
	}
	if second.ID != first.ID {
		t.Errorf("duplicate attached to job %s, want %s", second.ID, first.ID)
	}
	if st := s.Stats(); st.Executed != 1 || st.Deduped != 1 {
		t.Errorf("stats = %+v, want exactly 1 executed and 1 deduped", st)
	}
	if second.Result.RatioCPD != done.Result.RatioCPD {
		t.Errorf("cached ratio %v != computed %v", second.Result.RatioCPD, done.Result.RatioCPD)
	}

	// Restart: a new server over the same store must serve the result
	// from disk without recomputation.
	ts.Close()
	s.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2, ts2 := newTestServer(t, Options{Store: st2})
	third, _, code := postV2(t, ts2, quickReq(1))
	if code != http.StatusOK || third.Status != StatusDone || !third.Cached {
		t.Fatalf("post-restart: code=%d status=%q cached=%v, want 200/done/true", code, third.Status, third.Cached)
	}
	if third.Result == nil || third.Result.RatioCPD != done.Result.RatioCPD {
		t.Errorf("post-restart result %+v != original %v", third.Result, done.Result.RatioCPD)
	}
	if st := s2.Stats(); st.Executed != 0 || st.CacheHits != 1 {
		t.Errorf("post-restart stats = %+v, want 0 executed, 1 cache hit", st)
	}
}

// TestVerilogUpload submits an uploaded netlist and checks both that it
// runs and that a formatting variant of the same source dedups onto the
// same content hash.
func TestVerilogUpload(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	src := als.WriteVerilog(als.Benchmark("Adder16"))

	req := Request{Verilog: src, Metric: "NMED", Budget: 0.0244, Vectors: 256, Iterations: 2}
	v, _, code := postV2(t, ts, req)
	if code != http.StatusAccepted {
		t.Fatalf("verilog submit status = %d, want 202", code)
	}
	if !strings.HasPrefix(v.Spec.Circuit, "verilog:") {
		t.Fatalf("verilog job circuit key = %q", v.Spec.Circuit)
	}
	done := waitDone(t, ts, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("verilog job ended %q: %s", done.Status, done.Error)
	}
	if r := done.Result.RatioCPD; !(r > 0 && r <= 1.0001) {
		t.Errorf("Ratio_cpd = %v, want in (0, 1]", r)
	}

	// The same netlist with different formatting must hash identically.
	variant := "// a comment\n" + strings.ReplaceAll(src, "\n", "\n\n")
	req.Verilog = variant
	dup, _, code := postV2(t, ts, req)
	if code != http.StatusOK || !dup.Cached || dup.Hash != done.Hash {
		t.Errorf("formatting variant: code=%d cached=%v hash match=%v, want cache hit",
			code, dup.Cached, dup.Hash == done.Hash)
	}
}

// TestCancelMidIteration submits a deliberately long job, cancels it once
// progress shows the optimizer mid-run, and checks it lands in the
// cancelled state with the iteration count frozen short of the total.
func TestCancelMidIteration(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := quickReq(1)
	req.Iterations = 5000 // minutes of work if never cancelled

	v, _, _ := postV2(t, ts, req)
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never reported progress")
		}
		var jv JobViewV2
		getV2(t, ts, "/v2/jobs/"+v.ID, &jv)
		if jv.Progress != nil && jv.Progress.Iter >= 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Post(ts.URL+"/v2/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}

	done := waitDone(t, ts, v.ID)
	if done.Status != StatusCancelled {
		t.Fatalf("job ended %q, want cancelled", done.Status)
	}
	if done.Progress == nil || done.Progress.Iter >= done.Progress.Total {
		t.Errorf("cancelled progress = %+v, want mid-run", done.Progress)
	}
	if !strings.Contains(done.Error, "cancelled") {
		t.Errorf("error = %q, want a cancellation message", done.Error)
	}

	// A cancelled job's result is gone for good (410), not "retry later".
	if e, code := getV2(t, ts, "/v2/jobs/"+v.ID+"/result", nil); code != http.StatusGone || e.Error.Code != CodeJobCancelled {
		t.Errorf("cancelled result = %d %q, want 410 %s", code, e.Error.Code, CodeJobCancelled)
	}

	// A cancelled job's hash is not poisoned: resubmitting runs afresh.
	again, _, code := postV2(t, ts, quickReq(1))
	if code != http.StatusAccepted || again.Cached {
		t.Fatalf("resubmit after cancel: code=%d cached=%v, want a fresh run", code, again.Cached)
	}
	if fin := waitDone(t, ts, again.ID); fin.Status != StatusDone {
		t.Fatalf("fresh run after cancel ended %q: %s", fin.Status, fin.Error)
	}
}

// TestDrain covers graceful shutdown: running jobs finish, new
// submissions are rejected, and an expired drain deadline cancels
// in-flight jobs instead of hanging.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	v, _, _ := postV2(t, ts, quickReq(3))

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if jv, _ := s.JobV2(v.ID); jv.Status != StatusDone {
		t.Errorf("after drain, job is %q, want done", jv.Status)
	}
	if _, _, code := postV2(t, ts, quickReq(4)); code != http.StatusServiceUnavailable {
		t.Errorf("submit while drained: status %d, want 503", code)
	}
}

func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := quickReq(1)
	req.Iterations = 5000
	v, _, _ := postV2(t, ts, req)

	// Wait until it is actually running so drain has something in flight.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var jv JobViewV2
		if getV2(t, ts, "/v2/jobs/"+v.ID, &jv); jv.Status == StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("drain with expired deadline must report the timeout")
	}
	if jv, _ := s.JobV2(v.ID); jv.Status != StatusCancelled {
		t.Errorf("after timed-out drain, job is %q, want cancelled", jv.Status)
	}
}

// TestCancelQueuedJob cancels a job before any worker picks it up: with a
// single worker busy on a long job, the second queued job must go
// straight to cancelled and never run.
func TestCancelQueuedJob(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	long := quickReq(1)
	long.Iterations = 5000
	running, _, _ := postV2(t, ts, long)
	queued, _, _ := postV2(t, ts, quickReq(9))

	if v, ok := s.Cancel(queued.ID); !ok || v.Status != StatusCancelled {
		t.Fatalf("cancel queued: ok=%v status=%q", ok, v.Status)
	}
	s.Cancel(running.ID)
	waitDone(t, ts, running.ID)
	if st := s.Stats(); st.Executed != 0 || st.Cancelled != 2 {
		t.Errorf("stats = %+v, want 0 executed, 2 cancelled", st)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"neither circuit nor verilog", Request{Metric: "ER", Budget: 0.05}, "exactly one"},
		{"both circuit and verilog", Request{Circuit: "c880", Verilog: "module m; endmodule", Metric: "ER", Budget: 0.05}, "exactly one"},
		{"unknown circuit", Request{Circuit: "c4242", Metric: "ER", Budget: 0.05}, "unknown circuit"},
		{"missing metric", Request{Circuit: "c880", Budget: 0.05}, "metric"},
		{"bad metric", Request{Circuit: "c880", Metric: "MAE", Budget: 0.05}, "unknown metric"},
		{"zero budget", Request{Circuit: "c880", Metric: "ER"}, "budget"},
		{"budget above one", Request{Circuit: "c880", Metric: "ER", Budget: 1.5}, "budget"},
		{"bad method", Request{Circuit: "c880", Metric: "ER", Budget: 0.05, Method: "annealing"}, "unknown method"},
		{"bad scale", Request{Circuit: "c880", Metric: "ER", Budget: 0.05, Scale: "huge"}, "unknown scale"},
		{"tiny population", Request{Circuit: "c880", Metric: "ER", Budget: 0.05, Population: 2}, "population"},
		{"huge vectors", Request{Circuit: "c880", Metric: "ER", Budget: 0.05, Vectors: 1 << 30}, "vectors"},
		{"bad depth weight", Request{Circuit: "c880", Metric: "ER", Budget: 0.05, DepthWeight: 2}, "depth_weight"},
		{"malformed verilog", Request{Verilog: "module busted", Metric: "ER", Budget: 0.05}, "verilog"},
	}
	for _, tc := range cases {
		_, err := validate(tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestNamedBenchmarkHashMatchesExperimentCell pins the dedup contract
// with internal/exp: a default service submission of a benchmark hashes
// identically to the corresponding experiment-orchestrator cell, so the
// daemon's store and an experiment sweep's store are one cache.
func TestNamedBenchmarkHashMatchesExperimentCell(t *testing.T) {
	sp, err := validate(Request{Circuit: "Adder16", Metric: "NMED", Budget: 0.0244})
	if err != nil {
		t.Fatal(err)
	}
	// The TABLE III cell for Adder16/DCGWO at quick scale, seed 1.
	cell := sp.job
	cell.Method = "Ours"
	cell.Metric = "NMED"
	want, err := cell.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if sp.hash != want {
		t.Errorf("service hash %s != experiment cell hash %s", sp.hash, want)
	}
	// Case-insensitive spellings collapse onto the same canonical hash.
	sp2, err := validate(Request{Circuit: "Adder16", Metric: "nmed", Budget: 0.0244, Method: "dcgwo", Scale: "QUICK"})
	if err != nil {
		t.Fatal(err)
	}
	if sp2.hash != sp.hash {
		t.Errorf("spelling variants hash differently: %s vs %s", sp2.hash, sp.hash)
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v2/jobs/f999999"); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
	if code := get("/v2/jobs/f999999/result"); code != http.StatusNotFound {
		t.Errorf("unknown result status = %d, want 404", code)
	}

	// Malformed JSON and unknown fields are 400s.
	for _, body := range []string{"{not json", `{"circut":"Adder16"}`} {
		resp, err := http.Post(ts.URL+"/v2/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// A not-yet-finished job's result is a 409 conflict.
	req := quickReq(1)
	req.Iterations = 5000
	v, _, _ := postV2(t, ts, req)
	if e, code := getV2(t, ts, "/v2/jobs/"+v.ID+"/result", nil); code != http.StatusConflict || e.Error.Code != CodeNotReady {
		t.Errorf("pending result = %d %q, want 409 %s", code, e.Error.Code, CodeNotReady)
	}

	// The retired /v1 flow API answers 404 on all five routes.
	for _, route := range []struct{ method, path string }{
		{http.MethodPost, "/v1/flows"},
		{http.MethodGet, "/v1/flows"},
		{http.MethodGet, "/v1/flows/" + v.ID},
		{http.MethodGet, "/v1/flows/" + v.ID + "/result"},
		{http.MethodPost, "/v1/flows/" + v.ID + "/cancel"},
	} {
		body, _ := json.Marshal(quickReq(2))
		req, err := http.NewRequest(route.method, ts.URL+route.path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404", route.method, route.path, resp.StatusCode)
		}
	}

	// healthz answers with counters.
	var health struct {
		Status string `json:"status"`
		Stats  Stats  `json:"stats"`
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Stats.Submitted < 1 {
		t.Errorf("healthz = %+v", health)
	}
}

// TestQueueFull fills the queue past its depth with one busy worker and
// expects 503s rather than unbounded buffering — and the rejections must
// not count as accepted submissions.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueDepth: 2})
	long := quickReq(1)
	long.Iterations = 5000
	postV2(t, ts, long) // occupies the single worker

	accepted, full := 1, 0
	for seed := int64(10); seed < 16; seed++ {
		if _, _, code := postV2(t, ts, quickReq(seed)); code == http.StatusServiceUnavailable {
			full++
		} else {
			accepted++
		}
	}
	if full == 0 {
		t.Error("expected at least one 503 once the queue filled")
	}
	if st := s.Stats(); st.Submitted != accepted {
		t.Errorf("stats.Submitted = %d, want %d (rejections must not count)", st.Submitted, accepted)
	}
}

// TestJobTableEviction bounds the daemon's memory: once the table reaches
// MaxJobs, each new submission evicts the oldest terminal jobs, while the
// persistent store keeps serving their results.
func TestJobTableEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, ts := newTestServer(t, Options{Store: st, MaxJobs: 2})

	req := quickReq(1)
	req.Iterations = 1
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		req.Seed = seed
		v, _, code := postV2(t, ts, req)
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: code %d", seed, code)
		}
		ids = append(ids, v.ID)
		waitDone(t, ts, v.ID)
	}
	if n := s.JobsPage(0, 0).Total; n > 2 {
		t.Errorf("job table holds %d entries, want <= MaxJobs=2", n)
	}
	// Eviction bounds memory but no longer breaks id polling: the oldest
	// terminal job resolves through its id→hash tombstone, result re-read
	// from the store (per-run detail is gone by design).
	var v0 JobViewV2
	if _, code := getV2(t, ts, "/v2/jobs/"+ids[0], &v0); code != http.StatusOK {
		t.Errorf("evicted terminal job must still resolve by id (tombstone): status %d", code)
	} else if v0.Status != StatusDone || v0.Result == nil {
		t.Errorf("tombstoned job view = status %s, result %v; want done with a store-read result", v0.Status, v0.Result)
	}
	// The evicted job's result is still one store lookup away.
	req.Seed = 1
	v, _, code := postV2(t, ts, req)
	if code != http.StatusOK || !v.Cached {
		t.Errorf("evicted job resubmission: code=%d cached=%v, want store hit", code, v.Cached)
	}
}

// TestListOrders checks the paged listing returns jobs in submission
// order with distinct IDs.
func TestListOrders(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		req := quickReq(seed)
		req.Iterations = 1
		v, _, _ := postV2(t, ts, req)
		ids = append(ids, v.ID)
	}
	var page JobPage
	if _, code := getV2(t, ts, "/v2/jobs", &page); code != http.StatusOK {
		t.Fatalf("list status = %d", code)
	}
	list := page.Jobs
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	for i, v := range list {
		if v.ID != ids[i] {
			t.Errorf("list[%d] = %s, want %s", i, v.ID, ids[i])
		}
	}
	if fmt.Sprint(ids) != fmt.Sprint([]string{"f000001", "f000002", "f000003"}) {
		t.Errorf("ids = %v, want sequential f%%06d", ids)
	}
}

// TestForgedStorePutRefused: no route writes or dumps the result store.
// A PUT of a made-up result under a real spec's hash is refused and
// leaves the store empty, so a following /v2 submission of that spec
// runs the flow instead of answering with the made-up result; the GET
// routes that once served the store are gone too, with or without one.
func TestForgedStorePutRefused(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	_, ts := newTestServer(t, Options{Store: st})
	_, bare := newTestServer(t, Options{})

	req := quickReq(71)
	sp, err := validate(req)
	if err != nil {
		t.Fatal(err)
	}
	forged := `{"ratio_cpd":0.001,"err":0,"evaluations":1}`
	put, err := http.NewRequest(http.MethodPut, ts.URL+"/store/"+sp.hash, strings.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Fatalf("PUT /store/<hash> = %d, want it refused", resp.StatusCode)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("store holds %d record(s) after a refused PUT, want 0", n)
	}

	v, _, code := postV2(t, ts, req)
	if code != http.StatusAccepted || v.Cached {
		t.Fatalf("submission after the PUT = (%d, cached=%v, status %q), want a fresh 202", code, v.Cached, v.Status)
	}
	got := waitDone(t, ts, v.ID)
	if got.Status != StatusDone || got.Result == nil || got.Result.RatioCPD == 0.001 {
		t.Fatalf("job ended %q with %+v, want a computed result", got.Status, got.Result)
	}

	for _, base := range []string{ts.URL, bare.URL} {
		for _, path := range []string{"/store/", "/store/" + sp.hash} {
			resp, err := http.Get(base + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
			}
		}
	}
}
