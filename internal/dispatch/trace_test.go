package dispatch

import (
	"context"
	"testing"

	"repro/internal/service"
	"repro/internal/trace"
)

// A traced sweep must produce ONE trace ID that spans the client's
// sweep/submit/poll spans and, on the worker, remote-parent request spans
// with job.run children — the fleet-wide causal chain the tracing
// subsystem exists to provide. The results must stay bit-identical to the
// untraced local run.
func TestFleetTraceSpansCoordinatorAndWorkers(t *testing.T) {
	jobs := testJobs(5)
	want := wantResults(t, jobs)

	client := trace.New(trace.Options{Service: "experiments"})
	workerTracer := trace.New(trace.Options{Service: "w1"})
	w := newWorker(t, service.Options{Tracer: workerTracer})

	got, _, err := Run(context.Background(), jobs, fastOpts(Options{Endpoint: w.URL, Tracer: client}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)

	// Client side: the sweep root plus at least one submit and one poll
	// span, all under the sweep's trace.
	var fleetID string
	var sawSubmit, sawPoll bool
	for _, r := range client.Snapshot() {
		if r.Name == "dispatch.sweep" {
			fleetID = r.TraceID
			if !r.Root() {
				t.Errorf("dispatch.sweep is not the root: %+v", r)
			}
		}
	}
	if len(fleetID) != 32 {
		t.Fatalf("sweep trace ID = %q, want a 32-hex trace ID", fleetID)
	}
	for _, r := range client.Snapshot() {
		if r.TraceID != fleetID {
			t.Fatalf("client span %q escaped the sweep trace: %s", r.Name, r.TraceID)
		}
		sawSubmit = sawSubmit || r.Name == "dispatch.submit"
		sawPoll = sawPoll || r.Name == "dispatch.poll"
	}
	if !sawSubmit || !sawPoll {
		t.Fatalf("client trace incomplete: submit=%v poll=%v", sawSubmit, sawPoll)
	}

	// Worker side: the SAME trace ID, stitched in via remote-parent
	// request spans, with terminal job.run spans underneath. (Health
	// probes root their own traces — they carry no traceparent — so
	// membership is checked per span.)
	var sawRemote, sawJobRun bool
	for _, r := range workerTracer.Snapshot() {
		if r.TraceID != fleetID {
			continue
		}
		sawRemote = sawRemote || r.RemoteParent
		sawJobRun = sawJobRun || (r.Name == "job.run" && r.Attrs["status"] != nil)
	}
	if !sawRemote || !sawJobRun {
		t.Errorf("worker missing sweep spans: remote=%v job.run=%v", sawRemote, sawJobRun)
	}
}
