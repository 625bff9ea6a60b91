package service

import (
	"bytes"
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
