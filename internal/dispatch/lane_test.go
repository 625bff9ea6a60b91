package dispatch

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	als "repro"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
)

// TestLaneRefillsAsCellsFinish: against a 2-slot worker whose first
// batch holds one slow cell, the lane tops up as the quick cells of that
// batch finish, so the second POST goes out while the slow cell still
// runs instead of after it. The results stay identical to a local run.
func TestLaneRefillsAsCellsFinish(t *testing.T) {
	slow := exp.Job{
		Circuit: "c880", Method: als.MethodDCGWO.String(), Metric: als.MetricER.String(), Budget: 0.05,
		Scale: als.ScaleQuick.String(), Seed: 31, Population: 6, Iterations: 300, Vectors: 512,
	}
	jobs := append([]exp.Job{slow}, testJobs(32)[:8]...)
	want := wantResults(t, jobs)
	slowHash := mustHash(t, slow)

	real := newWorker(t, service.Options{Workers: 2})
	var (
		mu    sync.Mutex
		posts []time.Time
	)
	p := proxy(t, real.URL, func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			mu.Lock()
			posts = append(posts, time.Now())
			mu.Unlock()
		}
		return false
	})
	got, _, err := Run(context.Background(), jobs, fastOpts(Options{Endpoint: p.URL, SubmitBatch: 4}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)

	resp, err := http.Get(real.URL + "/v1/jobs/" + slowHash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(posts) < 2 {
		t.Fatalf("%d POST(s), want the 9 cells in at least 2", len(posts))
	}
	if !posts[1].Before(v.Finished) {
		t.Fatalf("second POST went out %v after the slow cell finished; the lane must refill as the quick cells finish",
			posts[1].Sub(v.Finished))
	}
}

// TestLanePacesServerWithoutWait: a server that answers every poll at
// once (an older build, ignoring wait) still sees the lane's poll sweeps
// at least PollInterval apart.
func TestLanePacesServerWithoutWait(t *testing.T) {
	jobs := testJobs(33)[:2]
	const (
		interval = 20 * time.Millisecond
		runFor   = 400 * time.Millisecond
	)
	var (
		gets      atomic.Int64
		submitted atomic.Int64 // unix nanos of the first POST
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			var br service.BatchRequest
			if err := json.NewDecoder(r.Body).Decode(&br); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var resp service.BatchResponse
			for _, j := range br.Jobs {
				_, h, err := service.CanonicalJobSpec(j)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				resp.Jobs = append(resp.Jobs, service.JobView{Hash: h, Status: service.StatusQueued})
			}
			submitted.CompareAndSwap(0, time.Now().UnixNano())
			json.NewEncoder(w).Encode(resp) //nolint:errcheck
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			gets.Add(1)
			v := service.JobView{Hash: strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), Status: service.StatusRunning}
			if time.Since(time.Unix(0, submitted.Load())) >= runFor {
				v.Status, v.Result = service.StatusDone, &exp.JobResult{RatioCPD: 0.5}
			}
			json.NewEncoder(w).Encode(v) //nolint:errcheck
		default:
			http.NotFound(w, r)
		}
	}))
	defer stub.Close()

	opts := fastOpts(Options{Endpoint: stub.URL})
	opts.PollInterval = interval
	got, _, err := Run(context.Background(), jobs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("%d cells published, want %d", len(got), len(jobs))
	}
	// One sweep polls both cells; runFor/interval sweeps find them running
	// and one more finds them done, give or take one for timer slack.
	if n, max := gets.Load(), int64(len(jobs)*(int(runFor/interval)+2)); n > max {
		t.Fatalf("%d polls in %v at PollInterval %v, want at most %d", n, runFor, interval, max)
	}
}

// TestLanePublishesWhenJobEnds: against a real alsd, the lane publishes
// each cell within a few ms of its job.run span's end — the held poll
// answers when the job ends, not at the sweep's deadline, which is set
// far away here.
func TestLanePublishesWhenJobEnds(t *testing.T) {
	jobs := testJobs(34)[:4]
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	client := trace.New(trace.Options{Service: "experiments"})
	workerTracer := trace.New(trace.Options{Service: "w1"})
	w := newWorker(t, service.Options{Workers: 1, Tracer: workerTracer})

	opts := fastOpts(Options{Endpoint: w.URL, Store: st, Tracer: client})
	opts.PollInterval = 5 * time.Second
	if _, _, err := Run(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}
	ended := map[string]time.Time{}
	for _, r := range workerTracer.Snapshot() {
		if r.Name == "job.run" {
			ended[r.Attrs["hash"].(string)] = r.Start.Add(r.Duration())
		}
	}
	published := 0
	for _, r := range client.Snapshot() {
		if r.Name != "store.put" {
			continue
		}
		hash := r.Attrs["hash"].(string)
		end, ok := ended[hash]
		if !ok {
			t.Fatalf("cell %.12s… published without a job.run span", hash)
		}
		if lag := r.Start.Sub(end); lag > 100*time.Millisecond {
			t.Errorf("cell %.12s… published %v after its job.run span ended", hash, lag)
		}
		published++
	}
	if published != len(jobs) {
		t.Fatalf("%d cells published, want %d", published, len(jobs))
	}
}

// mustHash is a job's content hash.
func mustHash(t *testing.T, j exp.Job) string {
	t.Helper()
	h, err := j.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}
