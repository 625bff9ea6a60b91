// Metricswatch is a minimal operational dashboard for a running alsd: it
// scrapes GET /metrics on an interval, parses the Prometheus text
// exposition with the same internal/telemetry parser the repo's tests
// use, and prints one status line per tick — queue depth, running and
// completed jobs, evaluation throughput (derived from successive scrapes)
// and the evaluation-cache hit rate.
//
// It is the scraping side of docs/OPERATIONS.md in ~100 lines: everything
// a real Prometheus would ingest is plain text a loop and a parser can
// consume.
//
// Start a daemon and some load, then watch:
//
//	go run ./cmd/alsd -addr :8080 -store /tmp/alsd.jsonl
//	go run ./cmd/loadgen -targets http://localhost:8080 -sessions 50
//	go run ./examples/metricswatch -addr http://localhost:8080 -interval 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "alsd base URL")
		interval = flag.Duration("interval", 2*time.Second, "scrape interval")
		count    = flag.Int("count", 0, "number of scrapes (0 = forever)")
	)
	flag.Parse()
	log.SetFlags(0)
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}

	var prevEvals, prevT float64
	for i := 0; *count == 0 || i < *count; i++ {
		if i > 0 {
			time.Sleep(*interval)
		}
		m, err := scrape(base + "/metrics")
		if err != nil {
			log.Printf("scrape: %v", err)
			continue
		}

		now := float64(time.Now().UnixNano()) / 1e9
		evalsPerSec := 0.0
		if prevT != 0 && now > prevT {
			evalsPerSec = (m["als_evaluations_total"] - prevEvals) / (now - prevT)
		}
		prevEvals, prevT = m["als_evaluations_total"], now

		hitRate := 0.0
		if lookups := m["als_evalcache_lookups_total"]; lookups > 0 {
			hitRate = m["als_evalcache_hits_total"] / lookups
		}

		fmt.Printf("queue=%-3.0f running=%-2.0f done=%-5.0f failed=%-3.0f sse=%-3.0f evals/s=%-10.0f cache-hit=%5.1f%% store-hits=%.0f/%.0f\n",
			m["als_queue_depth"],
			m["als_jobs_running"],
			m[`als_jobs_completed_total{status="done"}`],
			m[`als_jobs_completed_total{status="failed"}`],
			m["als_sse_subscribers"],
			evalsPerSec,
			100*hitRate,
			m["als_store_hits_total"], m["als_store_gets_total"])
	}
	os.Exit(0)
}

// scrape fetches and parses one exposition.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return telemetry.Parse(resp.Body)
}
