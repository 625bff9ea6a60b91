package service

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// scrape fetches and parses the server's /metrics exposition.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	m, err := telemetry.Parse(resp.Body)
	if err != nil {
		t.Fatalf("parse /metrics: %v", err)
	}
	return m
}

// TestMetricsEndpoint walks one job through every serving path — executed
// uncached, answered from the store, deduped against a finished job — and
// asserts the whole pipeline's counters via a real HTTP scrape.
func TestMetricsEndpoint(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1, Store: st})

	v, _, code := postV2(t, ts, quickReq(1))
	if code >= 300 {
		t.Fatalf("submit: HTTP %d", code)
	}
	waitDone(t, ts, v.ID)
	// Identical resubmission: the job is still in the table, so this is a
	// dedup hit (not a store hit), answered synchronously.
	if _, _, code := postV2(t, ts, quickReq(1)); code != http.StatusOK {
		t.Fatalf("dedup resubmit: HTTP %d, want 200", code)
	}

	m := scrape(t, ts.URL)
	for series, want := range map[string]float64{
		"als_jobs_submitted_total":                                  2,
		"als_jobs_executed_total":                                   1,
		"als_jobs_deduped_total":                                    1,
		`als_jobs_completed_total{status="done"}`:                   1,
		"als_jobs_running":                                          0,
		"als_queue_depth":                                           0,
		"als_job_duration_seconds_count":                            1,
		"als_store_puts_total":                                      2, // result + front
		"als_sse_subscribers":                                       0,
		`als_http_requests_total{route="POST /v2/jobs",code="202"}`: 1,
		`als_http_requests_total{route="POST /v2/jobs",code="200"}`: 1,
	} {
		if m[series] != want {
			t.Errorf("%s = %v, want %v", series, m[series], want)
		}
	}
	for _, positive := range []string{
		"als_evaluations_total",
		"als_evalcache_lookups_total",
		"als_http_request_duration_seconds_count",
	} {
		if m[positive] <= 0 {
			t.Errorf("%s = %v, want > 0", positive, m[positive])
		}
	}

	// Every response carries a request id for log correlation.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response has no X-Request-Id header")
	}
}

// TestMetricNamesFrozen pins the registered metric names (and their
// registration order) against the operational contract file. Renaming or
// dropping a metric breaks dashboards exactly like renaming a JSON field
// breaks clients; the contract file makes that a deliberate diff, not an
// accident.
func TestMetricNamesFrozen(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()

	raw, err := os.ReadFile(filepath.Join("testdata", "metrics_v1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The contract file also freezes the coordinator's names (appended,
	// never reordered); those register in internal/coord, not here.
	var want []string
	for _, name := range strings.Fields(string(raw)) {
		if strings.HasPrefix(name, "als_cluster_") || strings.HasPrefix(name, "als_webhook_") {
			continue
		}
		want = append(want, name)
	}
	got := s.Metrics().MetricNames()
	if len(got) != len(want) {
		t.Fatalf("registry has %d metrics, contract lists %d:\ngot  %v\nwant %v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("metric %d = %q, contract says %q", i, got[i], want[i])
		}
	}
}

// TestMetricsMonotonicUnderConcurrentJobs submits distinct jobs from many
// goroutines while a scraper reads /metrics concurrently, asserting —
// under -race — that the submission counter never moves backwards and the
// final counts are exact.
func TestMetricsMonotonicUnderConcurrentJobs(t *testing.T) {
	const jobs = 6
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: jobs})

	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := scrape(t, ts.URL)
			if v := m["als_jobs_submitted_total"]; v < last {
				t.Errorf("als_jobs_submitted_total went backwards: %v after %v", v, last)
				return
			} else {
				last = v
			}
		}
	}()

	var wg sync.WaitGroup
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, code := postV2(t, ts, quickReq(int64(100+i)))
			if code >= 300 {
				t.Errorf("submit %d: HTTP %d", i, code)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		if v := waitDone(t, ts, id); v.Status != StatusDone {
			t.Errorf("job %d finished %s: %s", i, v.Status, v.Error)
		}
	}
	close(stop)
	scraper.Wait()

	m := scrape(t, ts.URL)
	if got := m["als_jobs_submitted_total"]; got != jobs {
		t.Errorf("als_jobs_submitted_total = %v, want %d", got, jobs)
	}
	if got := m["als_jobs_executed_total"]; got != jobs {
		t.Errorf("als_jobs_executed_total = %v, want %d", got, jobs)
	}
	if got := m[`als_jobs_completed_total{status="done"}`]; got != jobs {
		t.Errorf(`als_jobs_completed_total{status="done"} = %v, want %d`, got, jobs)
	}
	if got := m["als_jobs_running"]; got != 0 {
		t.Errorf("als_jobs_running = %v after all jobs finished", got)
	}
	if got := m["als_job_duration_seconds_count"]; got != jobs {
		t.Errorf("als_job_duration_seconds_count = %v, want %d", got, jobs)
	}
}
