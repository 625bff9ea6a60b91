// Apiclient drives a running alsd daemon end to end over the /v2 API: it
// submits a flow (a named benchmark by default, or an uploaded
// structural-Verilog file with -verilog), consumes the job's live
// Server-Sent Events stream (per-iteration progress and every improved
// solution — no polling), prints the result with its delay/error/area
// trade-off front, and demonstrates the dedup cache by resubmitting the
// identical request.
//
// It imports service.Request/service.JobViewV2 for the wire types so the
// example can never drift from the daemon's JSON contract; an out-of-tree
// client would declare the same structs from the README's API reference.
//
// Start the daemon, then run the client:
//
//	go run ./cmd/alsd -addr :8080 -store /tmp/alsd.jsonl
//	go run ./examples/apiclient -addr http://localhost:8080 \
//	    -circuit Adder16 -metric nmed -budget 0.0244
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8080", "alsd base URL")
		circuit = flag.String("circuit", "Adder16", "benchmark name")
		verilog = flag.String("verilog", "", "path to a structural-Verilog netlist (overrides -circuit)")
		method  = flag.String("method", "dcgwo", "optimizer method")
		metric  = flag.String("metric", "nmed", "error metric: er|nmed")
		budget  = flag.Float64("budget", 0.0244, "error budget")
		scale   = flag.String("scale", "quick", "run scale: quick|paper")
		seed    = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	req := service.Request{Method: *method, Metric: *metric, Budget: *budget, Scale: *scale, Seed: *seed}
	if *verilog != "" {
		src, err := os.ReadFile(*verilog)
		if err != nil {
			log.Fatal(err)
		}
		req.Verilog = string(src)
	} else {
		req.Circuit = *circuit
	}

	first := submit(*addr, req)
	fmt.Printf("submitted: job %s (%s, cached=%v)\n", first.ID, first.Status, first.Cached)

	// One SSE connection replaces the whole polling loop: the stream ends
	// with a terminal event carrying the full job view.
	final := first
	if !first.terminalLike() {
		final = stream(*addr, first.ID)
	}
	if final.Status != service.StatusDone {
		log.Fatalf("job ended %s: %s", final.Status, final.Error)
	}
	fmt.Printf("done: Ratio_cpd = %.4f, err = %.5g, %d evaluations, %v\n",
		final.Result.RatioCPD, final.Result.Err, final.Result.Evaluations,
		time.Duration(final.Result.RuntimeNS).Round(time.Millisecond))
	fmt.Printf("front (%d solutions):\n", len(final.Front))
	for i, sol := range final.Front {
		fmt.Printf("  #%d Ratio_cpd=%.4f err=%.5g area=%.2f\n", i, sol.RatioCPD, sol.Err, sol.Area)
	}

	// An identical resubmission is answered from cache, no recomputation.
	again := submit(*addr, req)
	fmt.Printf("resubmitted: job %s answered immediately (status %s, cached=%v)\n",
		again.ID, again.Status, again.Cached)
}

func submit(addr string, req service.Request) submittedJob {
	body, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(addr+"/v2/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e service.ErrorBody
		json.NewDecoder(resp.Body).Decode(&e) //nolint:errcheck
		log.Fatalf("submit failed (%s): [%s] %s", resp.Status, e.Error.Code, e.Error.Message)
	}
	var v submittedJob
	if err := json.NewDecoder(resp.Body).Decode(&v.JobViewV2); err != nil {
		log.Fatal(err)
	}
	return v
}

type submittedJob struct {
	service.JobViewV2
}

func (v submittedJob) terminalLike() bool {
	return v.Status == service.StatusDone || v.Status == service.StatusFailed || v.Status == service.StatusCancelled
}

// stream consumes the job's SSE feed, printing progress and improved
// solutions, and returns the terminal job view the stream ends with.
func stream(addr, id string) submittedJob {
	resp, err := http.Get(addr + "/v2/jobs/" + id + "/events")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("events stream failed: %s", resp.Status)
	}
	var event, data string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case service.EventTypeProgress:
				var p service.Progress
				if err := json.Unmarshal([]byte(data), &p); err == nil {
					fmt.Printf("  iter %d/%d  best Ratio_cpd so far %.4f\n", p.Iter, p.Total, p.BestRatioCPD)
				}
			case service.EventTypeSolution:
				var s service.SolutionView
				if err := json.Unmarshal([]byte(data), &s); err == nil {
					fmt.Printf("  improved -> Ratio_cpd <= %.4f err=%.5g area=%.2f\n", s.RatioCPD, s.Err, s.Area)
				}
			case string(service.StatusDone), string(service.StatusFailed), string(service.StatusCancelled):
				var v submittedJob
				if err := json.Unmarshal([]byte(data), &v.JobViewV2); err != nil {
					log.Fatal(err)
				}
				return v
			}
			event, data = "", ""
		}
	}
	log.Fatalf("events stream ended without a terminal event: %v", sc.Err())
	return submittedJob{}
}
