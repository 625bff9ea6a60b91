package dispatch

import "repro/internal/telemetry"

// Metrics is the lane instrument set. Unlike the serving stack, where one
// Server owns one registry for its whole lifetime, lanes are transient —
// a sweep client may execute several runs in one process, and the
// coordinator starts one lane per registered worker — so the instruments
// are created once with NewMetrics and handed to every Run or Lane;
// counters then accumulate on the same registry without re-registration
// panics.
//
// A nil *Metrics is valid everywhere and records nothing, so library
// callers that don't scrape pay only a nil check per event.
type Metrics struct {
	cellsCompleted *telemetry.CounterVec // lane
	retries        *telemetry.CounterVec // lane
	resubmits      *telemetry.CounterVec // lane
	cellsRemaining *telemetry.Gauge
}

// NewMetrics registers the dispatch instruments on reg. Call once per
// registry; the returned Metrics may be shared by any number of
// sequential or concurrent Runs and Lanes.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	return &Metrics{
		cellsCompleted: reg.CounterVec("als_dispatch_cells_completed_total",
			"Sweep cells finished, by lane (endpoint or worker URL).", "lane"),
		retries: reg.CounterVec("als_dispatch_retries_total",
			"Transport-level failures that were retried, by lane.", "lane"),
		resubmits: reg.CounterVec("als_dispatch_resubmits_total",
			"Cells requeued after a worker forgot or cancelled them, by lane.", "lane"),
		cellsRemaining: reg.Gauge("als_dispatch_cells_remaining",
			"Unfinished cells of the dispatch run(s) in flight."),
	}
}

func (m *Metrics) remaining(delta int64) {
	if m != nil {
		m.cellsRemaining.Add(delta)
	}
}

func (m *Metrics) completed(lane string) {
	if m != nil {
		m.cellsCompleted.With(lane).Inc()
	}
}

func (m *Metrics) retried(lane string) {
	if m != nil {
		m.retries.With(lane).Inc()
	}
}

func (m *Metrics) resubmitted(lane string) {
	if m != nil {
		m.resubmits.With(lane).Inc()
	}
}
