package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
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
	"repro/internal/telemetry"
)

// testJobs is the cheapest real cross-experiment matrix: TABLE II on c880
// plus TABLE III on Adder16/Max16, five methods each, tiny budgets — 15
// cells, milliseconds apiece.
func testJobs(seed int64) []exp.Job {
	opts := exp.Opts{
		Scale: als.ScaleQuick, Seed: seed,
		Population: 6, Iterations: 3, Vectors: 512,
		Circuits: []string{"c880", "Adder16", "Max16"},
	}
	return append(exp.Table2Jobs(opts), exp.Table3Jobs(opts)...)
}

// newWorker boots an in-process alsd equivalent and returns its base URL.
func newWorker(t *testing.T, opts service.Options) *httptest.Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s := service.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// fastOpts keeps retry/poll pacing test-friendly.
func fastOpts(o Options) Options {
	o.PollInterval = 2 * time.Millisecond
	o.Backoff = 2 * time.Millisecond
	o.MaxBackoff = 10 * time.Millisecond
	o.RetryBudget = 2
	return o
}

// wantResults computes the reference ResultSet on the local scheduler.
func wantResults(t *testing.T, jobs []exp.Job) exp.ResultSet {
	t.Helper()
	rs, _, err := exp.RunJobs(jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// assertSameMetrics requires got to hold exactly want's cells with
// identical deterministic metrics (RuntimeNS is wall clock and excluded).
func assertSameMetrics(t *testing.T, got, want exp.ResultSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result set has %d cells, want %d", len(got), len(want))
	}
	for h, w := range want {
		g, ok := got[h]
		if !ok {
			t.Fatalf("missing cell %.12s…", h)
		}
		if g.RatioCPD != w.RatioCPD || g.Err != w.Err || g.Evaluations != w.Evaluations {
			t.Fatalf("cell %.12s… = (%v, %v, %d), want (%v, %v, %d)",
				h, g.RatioCPD, g.Err, g.Evaluations, w.RatioCPD, w.Err, w.Evaluations)
		}
	}
}

// proxy fronts a real worker: intercept sees every request first and may
// answer it itself (returning true); the rest are relayed unchanged.
func proxy(t *testing.T, real string, intercept func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !intercept(w, r) {
			relay(w, r, real)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// relay forwards r (query included, so held polls stay held) to the real
// worker and returns the body it relayed.
func relay(w http.ResponseWriter, r *http.Request, real string) []byte {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, real+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return nil
	}
	req.Header = r.Header.Clone()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	w.Write(body) //nolint:errcheck
	return body
}

// forgetOnce answers the first result poll with the worker's 404 for an
// unknown hash, calling before(hash) first.
func forgetOnce(forgot *atomic.Bool, before func(hash string)) func(http.ResponseWriter, *http.Request) bool {
	return func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/jobs/") || !forgot.CompareAndSwap(false, true) {
			return false
		}
		before(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"service: unknown job hash"}`)) //nolint:errcheck
		return true
	}
}

// deadEndpoint returns the URL of a listener that is already closed.
func deadEndpoint() string {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	return dead.URL
}

func TestDistributedMatchesLocalRun(t *testing.T) {
	jobs := testJobs(3)
	want := wantResults(t, jobs)

	w := newWorker(t, service.Options{})
	got, stats, err := Run(context.Background(), jobs, fastOpts(Options{Endpoint: w.URL}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if stats.Executed != len(want) {
		t.Fatalf("executed = %d, want %d", stats.Executed, len(want))
	}
}

// TestFirstSubmitFillsTheBatch: the run hands its lane a full batch, so
// the first POST /v1/jobs carries min(SubmitBatch, pending) cells rather
// than one cell at a time.
func TestFirstSubmitFillsTheBatch(t *testing.T) {
	jobs := testJobs(14)
	real := newWorker(t, service.Options{})
	var (
		mu      sync.Mutex
		batches []int
	)
	p := proxy(t, real.URL, func(w http.ResponseWriter, r *http.Request) bool {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" {
			raw, _ := io.ReadAll(r.Body)
			var br service.BatchRequest
			if err := json.Unmarshal(raw, &br); err != nil {
				t.Errorf("batch body: %v", err)
			}
			mu.Lock()
			batches = append(batches, len(br.Jobs))
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		return false
	})
	for _, batch := range []int{0, 4} { // 0 selects the default, 16
		mu.Lock()
		batches = nil
		mu.Unlock()
		opts := fastOpts(Options{Endpoint: p.URL, SubmitBatch: batch})
		if _, _, err := Run(context.Background(), jobs, opts); err != nil {
			t.Fatal(err)
		}
		want := min(opts.withDefaults().SubmitBatch, len(jobs))
		mu.Lock()
		if len(batches) == 0 || batches[0] != want {
			t.Errorf("SubmitBatch %d: batch sizes %v, want the first to carry %d cells", batch, batches, want)
		}
		mu.Unlock()
	}
}

// TestAllLanesDeadIsResumable: an endpoint that dies mid-run fails the
// run with the unfinished cells counted, but the store keeps what
// finished, and a local re-run with the same store completes the sweep —
// the distributed path never forfeits -resume.
func TestAllLanesDeadIsResumable(t *testing.T) {
	jobs := testJobs(8)
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The proxy relays until it has delivered the first finished cell,
	// then answers nothing but 500s.
	real := newWorker(t, service.Options{})
	var dead atomic.Bool
	p := proxy(t, real.URL, func(w http.ResponseWriter, r *http.Request) bool {
		if dead.Load() {
			http.Error(w, `{"error":"injected worker death"}`, http.StatusInternalServerError)
			return true
		}
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/") {
			if body := relay(w, r, real.URL); bytes.Contains(body, []byte(`"status": "done"`)) {
				dead.Store(true)
			}
			return true
		}
		return false
	})
	_, stats, err := Run(context.Background(), jobs, fastOpts(Options{Endpoint: p.URL, Store: st}))
	if err == nil {
		t.Fatal("run against a dead endpoint must fail")
	}
	if !strings.Contains(err.Error(), "unfinished") || !strings.Contains(err.Error(), p.URL) {
		t.Fatalf("error must name the endpoint and count unfinished cells: %v", err)
	}
	if stats.Executed == 0 || st.Len() != stats.Executed {
		t.Fatalf("the store must keep the %d finished cell(s); it holds %d", stats.Executed, st.Len())
	}

	rs, runStats, err := exp.RunJobs(jobs, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	if runStats.Cached != stats.Executed || runStats.Executed+runStats.Cached != len(rs) {
		t.Fatalf("resume accounting: %+v over %d cells, %d cached before", runStats, len(rs), stats.Executed)
	}
	assertSameMetrics(t, rs, wantResults(t, jobs))
}

// TestUnreachableFleetWithoutLocalShareFailsFast: the readiness preflight
// turns a typo'd endpoint into an immediate, clear error.
func TestUnreachableFleetWithoutLocalShareFailsFast(t *testing.T) {
	_, _, err := Run(context.Background(), testJobs(9), fastOpts(Options{Endpoint: deadEndpoint()}))
	if err == nil || !strings.Contains(err.Error(), "healthz") {
		t.Fatalf("unreachable endpoint must fail the preflight: %v", err)
	}
}

// TestOverCapOverrideFailsFastWithWorkers: a spec the worker API would
// 400 (here: a population override beyond the service resource cap)
// fails the run up front with the job named — before the endpoint is
// contacted.
func TestOverCapOverrideFailsFastWithWorkers(t *testing.T) {
	jobs := testJobs(13)
	jobs[0].Population = service.MaxPopulation + 1
	// Never contacted: validation precedes the preflight.
	_, _, err := Run(context.Background(), jobs[:1], fastOpts(Options{Endpoint: deadEndpoint()}))
	if err == nil || !strings.Contains(err.Error(), "population") || !strings.Contains(err.Error(), "-coord") {
		t.Fatalf("over-cap spec must fail fast naming the cap: %v", err)
	}
}

func TestNoLanesConfiguredErrors(t *testing.T) {
	_, _, err := Run(context.Background(), testJobs(1), Options{})
	if err == nil || !strings.Contains(err.Error(), "no endpoint") {
		t.Fatalf("endpoint-less run must error: %v", err)
	}
}

// TestCachedRunNeedsNoWorkers: a fully cached sweep returns before any
// HTTP traffic — resubmitting a finished sweep costs nothing even when
// the endpoint is gone.
func TestCachedRunNeedsNoWorkers(t *testing.T) {
	jobs := testJobs(10)
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want, _, err := exp.RunJobs(jobs, 0, st)
	if err != nil {
		t.Fatal(err)
	}

	got, stats, err := Run(context.Background(), jobs, fastOpts(Options{Endpoint: deadEndpoint(), Store: st}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if stats.Executed != 0 || stats.Cached != len(want) {
		t.Fatalf("cached run must not execute: %+v", stats)
	}
}

// TestWorkerAmnesiaResubmits: a worker that 404s a submitted hash (table
// eviction, restart without store) gets the cell resubmitted rather than
// losing it.
func TestWorkerAmnesiaResubmits(t *testing.T) {
	jobs := testJobs(11)
	want := wantResults(t, jobs)
	real := newWorker(t, service.Options{})
	var forgot atomic.Bool
	p := proxy(t, real.URL, forgetOnce(&forgot, func(string) {}))

	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	got, _, err := Run(context.Background(), jobs, fastOpts(Options{Endpoint: p.URL, Metrics: m}))
	if err != nil {
		t.Fatal(err)
	}
	if !forgot.Load() {
		t.Fatal("the injected 404 never triggered")
	}
	assertSameMetrics(t, got, want)
	if n := m.resubmits.With(p.URL).Value(); n != 1 {
		t.Fatalf("resubmits = %d, want 1", n)
	}
	if n := m.cellsCompleted.With(p.URL).Value(); n != int64(len(want)) {
		t.Fatalf("cells completed = %d, want %d", n, len(want))
	}
}

// TestResubmitConsultsStoreFirst: when a worker 404s a hash the shared
// store already holds (another party computed it), the lane must complete
// the cell from the store instead of resubmitting — zero
// als_dispatch_resubmits_total, identical results. The proxy simulates
// the race by writing the reference result into the store at the moment
// it fakes the worker's amnesia.
func TestResubmitConsultsStoreFirst(t *testing.T) {
	jobs := testJobs(21)
	want := wantResults(t, jobs)
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	real := newWorker(t, service.Options{})
	var forgot atomic.Bool
	p := proxy(t, real.URL, forgetOnce(&forgot, func(hash string) {
		// Another party "already computed" this hash: persist it, then
		// deny all knowledge.
		if res, ok := want[hash]; ok {
			if err := st.Put(hash, res); err != nil {
				t.Errorf("store put: %v", err)
			}
		}
	}))

	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	got, _, err := Run(context.Background(), jobs, fastOpts(Options{Endpoint: p.URL, Store: st, Metrics: m}))
	if err != nil {
		t.Fatal(err)
	}
	if !forgot.Load() {
		t.Fatal("the injected 404 never triggered")
	}
	assertSameMetrics(t, got, want)
	if n := m.resubmits.With(p.URL).Value(); n != 0 {
		t.Fatalf("store-resolvable 404 caused %d resubmit(s), want 0", n)
	}
}

// TestCancelledRunWrapsContextCanceled mirrors the local scheduler's
// contract so cmd/experiments prints the same -resume hint either way.
func TestCancelledRunWrapsContextCanceled(t *testing.T) {
	w := newWorker(t, service.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, testJobs(12), fastOpts(Options{Endpoint: w.URL}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled wrap", err)
	}
}
