package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	als "repro"
	"repro/internal/exp"
	"repro/internal/store"
)

// quickJob is the worker-API twin of quickReq: a canonical exp.Job spec.
func quickJob(seed int64) exp.Job {
	return exp.Job{
		Circuit: "Adder16",
		Method:  als.MethodDCGWO.String(),
		Metric:  als.MetricNMED.String(),
		Budget:  0.0244,
		Scale:   als.ScaleQuick.String(),
		Seed:    seed,
	}
}

// postBatch submits a job-spec batch and decodes the response.
func postBatch(t *testing.T, ts *httptest.Server, jobs ...exp.Job) (BatchResponse, int) {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	return br, resp.StatusCode
}

// getByHash fetches one job by content hash.
func getByHash(t *testing.T, ts *httptest.Server, hash string) (JobView, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode < 400 {
		t.Fatal(err)
	}
	return v, resp.StatusCode
}

// waitDoneByHash polls the worker API until the hash reaches a terminal
// state.
func waitDoneByHash(t *testing.T, ts *httptest.Server, hash string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, code := getByHash(t, ts, hash)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d", hash, code)
		}
		if v.Status.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("hash %s never finished", hash)
	return JobView{}
}

// TestBatchSubmitAndFetchByHash is the worker-API round trip: the hashes
// the server returns must equal the ones a coordinator computes locally,
// and fetching by hash must yield the finished result.
func TestBatchSubmitAndFetchByHash(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	jobs := []exp.Job{quickJob(5), quickJob(6)}
	br, code := postBatch(t, ts, jobs...)
	if code != http.StatusOK || len(br.Jobs) != 2 {
		t.Fatalf("batch submit: code=%d accepted=%d error=%q", code, len(br.Jobs), br.Error)
	}
	for i, v := range br.Jobs {
		want, err := jobs[i].Hash()
		if err != nil {
			t.Fatal(err)
		}
		if v.Hash != want {
			t.Fatalf("job %d: server hash %s, local hash %s", i, v.Hash, want)
		}
		got := waitDoneByHash(t, ts, v.Hash)
		if got.Status != StatusDone || got.Result == nil {
			t.Fatalf("job %d ended %q (error %q)", i, got.Status, got.Error)
		}
		if got.Result.RatioCPD <= 0 || got.Result.Evaluations <= 0 {
			t.Fatalf("job %d result implausible: %+v", i, got.Result)
		}
	}
}

// TestBatchSubmitDedupsAgainstFlowAPI: a spec batch and an equivalent
// /v2/jobs submission share one content hash, so only one flow executes.
func TestBatchSubmitDedupsAgainstFlowAPI(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	v, _, code := postV2(t, ts, quickReq(9))
	if code != http.StatusAccepted {
		t.Fatalf("flow submit: %d", code)
	}
	waitDone(t, ts, v.ID)

	br, code := postBatch(t, ts, quickJob(9))
	if code != http.StatusOK || len(br.Jobs) != 1 {
		t.Fatalf("batch: code=%d accepted=%d", code, len(br.Jobs))
	}
	if br.Jobs[0].Status != StatusDone || !br.Jobs[0].Cached {
		t.Fatalf("equivalent spec must dedup against the finished flow: %+v", br.Jobs[0])
	}
	if st := s.Stats(); st.Executed != 1 {
		t.Fatalf("executed = %d, want 1", st.Executed)
	}
}

func TestFetchByHashSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "results.jsonl")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Options{Store: st})
	ts1 := httptest.NewServer(s1.Handler())
	br, code := postBatch(t, ts1, quickJob(11))
	if code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	hash := br.Jobs[0].Hash
	first := waitDoneByHash(t, ts1, hash)
	ts1.Close()
	s1.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Options{Store: st2})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close(); st2.Close() })

	v, code := getByHash(t, ts2, hash)
	if code != http.StatusOK || v.Status != StatusDone || !v.Cached || v.Result == nil {
		t.Fatalf("restarted worker must serve the hash from its store: code=%d view=%+v", code, v)
	}
	if v.Result.RatioCPD != first.Result.RatioCPD || v.Result.Evaluations != first.Result.Evaluations {
		t.Fatalf("restart changed the result: %+v vs %+v", v.Result, first.Result)
	}
}

func TestFetchUnknownHashIs404(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if _, code := getByHash(t, ts, strings.Repeat("ab", 32)); code != http.StatusNotFound {
		t.Fatalf("unknown hash: code=%d, want 404", code)
	}
}

func TestBatchRejectsInvalidSpecWith400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	bad := quickJob(1)
	bad.Circuit = "NoSuchCircuit"
	body, _ := json.Marshal(BatchRequest{Jobs: []exp.Job{bad}})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: code=%d, want 400", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e["error"], "NoSuchCircuit") {
		t.Fatalf("error must name the bad circuit: %q", e["error"])
	}

	if _, code := postBatch(t, ts); code != http.StatusBadRequest {
		t.Fatalf("empty batch: code=%d, want 400", code)
	}
}

// TestBatchDrainingReturns503: once the server drains, batch submissions
// are rejected with 503 so a coordinator fails over to another worker.
func TestBatchDrainingReturns503(t *testing.T) {
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	s.Close()

	br, code := postBatch(t, ts, quickJob(1))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining batch: code=%d, want 503", code)
	}
	if br.Reason != ReasonDraining {
		t.Fatalf("503 must carry the machine-readable reason %q: %+v", ReasonDraining, br)
	}
	if !strings.Contains(br.Error, "draining") {
		t.Fatalf("503 body must name the cause: %+v", br)
	}
}

// getWait polls one hash with ?wait= and reports the view, the status
// code and when the answer arrived.
func getWait(t *testing.T, base, hash, wait string) (JobView, int, time.Time) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + hash + "?wait=" + wait)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode < 400 {
		t.Fatal(err)
	}
	return v, resp.StatusCode, time.Now()
}

// waitHeld blocks until a poll is held on h (the first hold on a server
// registers its shutdown hook).
func waitHeld(t *testing.T, h *PollHolds) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.shutdown)
		h.mu.Unlock()
		if n > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no poll was ever held")
		}
		time.Sleep(time.Millisecond)
	}
}

// longJob runs for minutes unless cancelled.
func longJob(seed int64) exp.Job {
	j := quickJob(seed)
	j.Iterations = 5000
	return j
}

// TestHeldPollAnswersWhenJobEnds: a poll with wait is answered with the
// finished job within a few ms of the job's end, not at the wait.
func TestHeldPollAnswersWhenJobEnds(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	j := quickJob(61)
	j.Iterations = 150
	br, code := postBatch(t, ts, j)
	if code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	start := time.Now()
	v, code, at := getWait(t, ts.URL, br.Jobs[0].Hash, "10s")
	if code != http.StatusOK || v.Status != StatusDone || v.Result == nil {
		t.Fatalf("held poll = %d %q, want 200 done with a result", code, v.Status)
	}
	if lag := at.Sub(v.Finished); lag > 250*time.Millisecond {
		t.Fatalf("held poll answered %v after the job ended", lag)
	}
	if held := at.Sub(start); held > 5*time.Second {
		t.Fatalf("held poll took %v", held)
	}

	// A cancelled job ends its held polls too.
	br, _ = postBatch(t, ts, longJob(62))
	answered := make(chan JobView, 1)
	go func() {
		var v JobView
		if resp, err := http.Get(ts.URL + "/v1/jobs/" + br.Jobs[0].Hash + "?wait=10s"); err == nil {
			json.NewDecoder(resp.Body).Decode(&v) //nolint:errcheck // a failed decode shows as the wrong status
			resp.Body.Close()
		}
		answered <- v
	}()
	waitHeld(t, &s.holds)
	cancelled := time.Now()
	resp, err := http.Post(ts.URL+"/v2/jobs/"+br.Jobs[0].ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case v := <-answered:
		if v.Status != StatusCancelled {
			t.Fatalf("held poll on a cancelled job = %q", v.Status)
		}
		if lag := time.Since(cancelled); lag > 2*time.Second {
			t.Fatalf("held poll answered %v after the cancel", lag)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("held poll outlived its cancelled job")
	}
}

// TestHeldPollAnswersAtOnce: a terminal job, an unknown hash and a
// request without wait are answered at once, exactly as without wait; a
// malformed wait is a 400.
func TestHeldPollAnswersAtOnce(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	br, _ := postBatch(t, ts, quickJob(63))
	done := waitDoneByHash(t, ts, br.Jobs[0].Hash)

	start := time.Now()
	v, code, _ := getWait(t, ts.URL, done.Hash, "10s")
	if code != http.StatusOK || v.Status != StatusDone || v.Result == nil || v.Result.RatioCPD != done.Result.RatioCPD {
		t.Fatalf("held poll on a done job = %d %+v", code, v)
	}
	_, code, _ = getWait(t, ts.URL, strings.Repeat("0", 64), "10s")
	if code != http.StatusNotFound {
		t.Fatalf("held poll on an unknown hash = %d, want 404", code)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("terminal and unknown hashes took %v to answer", took)
	}
	for _, bad := range []string{"soon", "10", "-1s", "1h%20"} {
		if _, code, _ := getWait(t, ts.URL, done.Hash, bad); code != http.StatusBadRequest {
			t.Errorf("wait=%s answered %d, want 400", bad, code)
		}
	}
}

// TestHeldPollReleasedByDisconnect: a client that goes away releases the
// handler holding its poll.
func TestHeldPollReleasedByDisconnect(t *testing.T) {
	s := New(Options{})
	h := s.Handler()
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Query().Has("wait") {
			returned <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	br, _ := postBatch(t, ts, longJob(64))

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/jobs/"+br.Jobs[0].Hash+"?wait=20s", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitHeld(t, &s.holds)
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still holding the poll of a client that went away")
	}
}

// TestShutdownReleasesHeldPoll: http.Server.Shutdown with a poll held
// returns promptly, the poll answered with the job's current state.
func TestShutdownReleasesHeldPoll(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	br, _ := postBatch(t, ts, longJob(65))
	answered := make(chan int, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + br.Jobs[0].Hash + "?wait=20s")
		if err != nil {
			answered <- 0
			return
		}
		resp.Body.Close()
		answered <- resp.StatusCode
	}()
	waitHeld(t, &s.holds)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v with a held poll", took)
	}
	if code := <-answered; code != http.StatusOK {
		t.Fatalf("released poll answered %d, want 200", code)
	}
}
