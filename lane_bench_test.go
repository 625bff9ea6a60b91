// The lane round-trip bench: one sweep cell through the worker job API,
// the layer between a sweep client (or the coordinator) and an alsd.
package als_test

import (
	"context"
	"net/http/httptest"
	"testing"

	als "repro"
	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/service"
)

// BenchmarkLaneRoundTrip measures one cell's round trip through the lane
// engine: dispatch.Run submits a quick-preset c880 DCGWO cell (the
// end-to-end benchmark's warm-up circuit and constraint) to an in-process
// alsd with one worker and no store, polls it to done and publishes it.
// Each iteration boots a fresh server outside the timer, so every
// iteration computes the cell; what the bench adds to the flow itself is
// the lane's health probe, submit and result polls, and the time a
// finished cell waits to be noticed.
func BenchmarkLaneRoundTrip(b *testing.B) {
	job := exp.Job{
		Circuit: benchFlowPaperCircuit,
		Method:  als.MethodDCGWO.String(),
		Metric:  als.MetricER.String(),
		Budget:  benchFlowPaperER,
		Scale:   als.ScaleQuick.String(),
		Seed:    benchWorkloadSeed,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc := service.New(service.Options{Workers: 1})
		ts := httptest.NewServer(svc.Handler())
		b.StartTimer()
		rs, _, err := dispatch.Run(context.Background(), []exp.Job{job}, dispatch.Options{Endpoint: ts.URL})
		b.StopTimer()
		ts.Close()
		svc.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 1 {
			b.Fatalf("round trip returned %d cells, want 1", len(rs))
		}
		b.StartTimer()
	}
}
