package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	als "repro"
	"repro/internal/cell"
	"repro/internal/netlist"
)

// cellSpec is one cell of the paper's TABLE II/III matrix.
type cellSpec struct {
	Circuit string
	Method  als.Method
	Metric  als.Metric
	Budget  float64
}

// flowItem is one entry of a flow workload's list: a cell plus its seed.
type flowItem struct {
	cellSpec
	Seed int64
}

func (it flowItem) String() string {
	return fmt.Sprintf("%s/%s %s<=%g seed=%d", it.Circuit, it.Method, it.Metric, it.Budget, it.Seed)
}

// flowWorkload is an in-process workload: passes over a fixed cell set.
type flowWorkload struct {
	name    string
	scale   als.Scale
	vectors int // the preset's Monte-Carlo sample size, which the checks rebuild
	cells   []cellSpec
	// passSeconds is the nominal duration of one pass over cells on a
	// 2-vCPU host. It converts --seconds into a whole number of passes, so
	// the list never depends on how fast this run happens to be.
	passSeconds float64
}

// tableCircuits are the TABLE I circuits with their table's constraint:
// TABLE II (ER 5%) for random/control, TABLE III (NMED 2.44%) for
// arithmetic circuits.
var tableCircuits = []struct {
	name   string
	metric als.Metric
	budget float64
}{
	{"Cavlc", als.MetricER, 0.05},
	{"c880", als.MetricER, 0.05},
	{"c1908", als.MetricER, 0.05},
	{"c2670", als.MetricER, 0.05},
	{"c3540", als.MetricER, 0.05},
	{"c5315", als.MetricER, 0.05},
	{"c7552", als.MetricER, 0.05},
	{"Int2float", als.MetricNMED, 0.0244},
	{"Adder16", als.MetricNMED, 0.0244},
	{"Max16", als.MetricNMED, 0.0244},
	{"c6288", als.MetricNMED, 0.0244},
	{"Adder", als.MetricNMED, 0.0244},
	{"Max", als.MetricNMED, 0.0244},
	// Sin and Sqrt are left out: one quick flow of either takes seconds
	// and would dominate the run.
}

func tableCell(circuit string, m als.Method) cellSpec {
	for _, tc := range tableCircuits {
		if tc.name == circuit {
			return cellSpec{Circuit: circuit, Method: m, Metric: tc.metric, Budget: tc.budget}
		}
	}
	panic("e2ebench: no table cell for " + circuit)
}

// quickWorkload: all 13 circuits × the five methods at the quick preset.
func quickWorkload() flowWorkload {
	w := flowWorkload{name: "flow-quick", scale: als.ScaleQuick, vectors: 2048, passSeconds: 6.5}
	for _, tc := range tableCircuits {
		for _, m := range als.AllMethods() {
			w.cells = append(w.cells, tableCell(tc.name, m))
		}
	}
	return w
}

// paperWorkload: DCGWO at the paper's preset on the circuits whose flow
// takes about 0.4–2.5 s.
func paperWorkload() flowWorkload {
	w := flowWorkload{name: "flow-paper", scale: als.ScalePaper, vectors: 1 << 17, passSeconds: 7}
	for _, name := range []string{"c880", "c1908", "c2670", "c3540", "Cavlc", "Int2float", "Adder16", "Max16"} {
		w.cells = append(w.cells, tableCell(name, als.MethodDCGWO))
	}
	return w
}

// list is the workload's fixed list: whole passes over the cell set, the
// p-th pass at flow seed p+1, in an order --seed shuffles. Every seed runs
// the same flows, so throughput and ratio_cpd_geomean compare across seeds;
// the seed changes only the order they run in.
func (w flowWorkload) list(seed int64, seconds int) []flowItem {
	passes := int(math.Round(float64(seconds) / w.passSeconds))
	if passes < 1 {
		passes = 1
	}
	var items []flowItem
	for p := 0; p < passes; p++ {
		for _, c := range w.cells {
			items = append(items, flowItem{cellSpec: c, Seed: int64(p + 1)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// warmup is the fixed untimed flow every set-up ends with.
var warmup = flowItem{cellSpec: cellSpec{Circuit: "c880", Method: als.MethodDCGWO, Metric: als.MetricER, Budget: 0.05}, Seed: 1}

// runFlow runs one flow through the public session API.
func runFlow(ctx context.Context, c *netlist.Circuit, lib *cell.Library, it flowItem, scale als.Scale) (*als.FlowResult, als.Front, error) {
	sess, err := als.NewSession(c, lib,
		als.WithMethod(it.Method), als.WithMetric(it.Metric), als.WithErrorBudget(it.Budget),
		als.WithScale(scale), als.WithSeed(it.Seed))
	if err != nil {
		return nil, nil, err
	}
	return sess.Collect(ctx)
}

// setupRuns is how many times a run sets up; setup_s is their median.
// The set-ups are spread over the run, not done back to back: a host
// whose speed drifts over tens of seconds then moves them as it moves the
// timed work, and one slow moment moves only one of them.
const setupRuns = 5

// setupFlows builds every circuit of the list and runs the warm-up flow.
func setupFlows(w flowWorkload, items []flowItem, lib *cell.Library) (map[string]*netlist.Circuit, error) {
	circuits := map[string]*netlist.Circuit{}
	for _, it := range append([]flowItem{warmup}, items...) {
		if circuits[it.Circuit] != nil {
			continue
		}
		c, err := als.BenchmarkByName(it.Circuit)
		if err != nil {
			return nil, err
		}
		circuits[it.Circuit] = c
	}
	if _, _, err := runFlow(context.Background(), circuits[warmup.Circuit], lib, warmup, w.scale); err != nil {
		return nil, fmt.Errorf("warm-up flow: %w", err)
	}
	return circuits, nil
}

// flowPass is the outcome of one timed pass over a list.
type flowPass struct {
	busy   time.Duration // summed wall time of the flows alone
	lat    []float64     // per-flow wall time, ms
	ratios []float64
}

// flowRun is one flow's outcome.
type flowRun struct {
	res   *als.FlowResult
	front als.Front
	dt    time.Duration
	err   error
}

func timeFlow(ctx context.Context, c *netlist.Circuit, lib *cell.Library, it flowItem, scale als.Scale) flowRun {
	start := time.Now()
	res, front, err := runFlow(ctx, c, lib, it, scale)
	return flowRun{res: res, front: front, dt: time.Since(start), err: err}
}

func (p *flowPass) add(r flowRun) {
	p.busy += r.dt
	if r.err != nil {
		return
	}
	p.lat = append(p.lat, ms(r.dt))
	p.ratios = append(p.ratios, r.res.RatioCPD)
}

func runFlowWorkload(cfg config, w flowWorkload, rep *report) error {
	lib := als.NewLibrary()
	items := w.list(cfg.seed, cfg.seconds)
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: %d flows\n", w.name, cfg.seed, len(items))

	// Each set-up starts from a finished collection, so it does not pay
	// for the garbage of what ran before it.
	var setups []float64
	setup := func() (map[string]*netlist.Circuit, error) {
		runtime.GC()
		start := time.Now()
		c, err := setupFlows(w, items, lib)
		setups = append(setups, time.Since(start).Seconds())
		return c, err
	}
	circuits, err := setup()
	if err != nil {
		return err
	}

	rep.attempted = len(items)
	var areas areaTally
	check := func(it flowItem, r flowRun) error {
		if r.err != nil {
			return r.err
		}
		return checkFlow(circuits[it.Circuit], lib, it, w.vectors, r.res, r.front, &areas)
	}
	if !cfg.trace {
		// Each flow is timed on its own; its output check, and the
		// set-ups after the first, spread evenly through the list, run
		// outside the timed region. peak_rss_mb is the median of one peak
		// per len(cells) flows, sampled only while a flow runs. Before
		// each flow, the heap that a set-up or the last check grew goes
		// back to the OS, so the peaks are the flows' own.
		var base flowPass
		rss := startRSS(0, "self")
		rss.pause()
		for i, it := range items {
			for len(setups) < setupRuns && i >= len(setups)*len(items)/setupRuns {
				if _, err := setup(); err != nil {
					return err
				}
			}
			debug.FreeOSMemory()
			rss.resume()
			r := timeFlow(context.Background(), circuits[it.Circuit], lib, it, w.scale)
			rss.pause()
			base.add(r)
			if err := check(it, r); err != nil {
				rep.fail("flow %s: %v", it, err)
			}
			if (i+1)%len(w.cells) == 0 {
				rss.cut()
			}
		}
		fmt.Printf("areas reported within rounding but not bit-exact: %d of %d\n", areas.inexact, areas.checked)
		rep.set("setup_s", median(setups))
		rep.set("peak_rss_mb", rss.finish())
		rep.set("ratio_cpd_geomean", geomean(base.ratios))
		rep.set("flows_per_s", float64(len(items))/base.busy.Seconds())
		rep.set("fresh_ms_p50", percentile(base.lat, 0.5))
		rep.set("fresh_ms_p90", percentile(base.lat, 0.9))
		return nil
	}
	return tracedFlows(w, items, circuits, lib, cfg, rep, check)
}

// tracedFlows is the traced run: every flow of the list runs twice in a
// row, untraced and then traced, so trace.overhead_frac compares the two
// on the same engine state. The untraced twin is output-checked; the
// traced one carries the flow span, is followed by the layer probe, and
// alone runs under the CPU profile. Both start from a finished
// collection, as the profiled one must.
func tracedFlows(w flowWorkload, items []flowItem, circuits map[string]*netlist.Circuit, lib *cell.Library,
	cfg config, rep *report, check func(flowItem, flowRun) error) error {

	probe := newLayerProbe(lib, w.vectors)
	if probe == nil {
		fmt.Fprintln(os.Stderr, "e2ebench: engine layer probe not built; engine layer metrics absent")
		for _, it := range items {
			if err := check(it, timeFlow(context.Background(), circuits[it.Circuit], lib, it, w.scale)); err != nil {
				rep.fail("flow %s: %v", it, err)
			}
		}
		return nil
	}
	probe.timeBuilds(items)
	cpu := newCPUTally()
	var plain, traced flowPass
	for _, it := range items {
		c := circuits[it.Circuit]
		runtime.GC()
		r := timeFlow(context.Background(), c, lib, it, w.scale)
		plain.add(r)
		var t flowRun
		if err := cpu.profile(func() {
			ctx, done := probe.flowContext(context.Background())
			t = timeFlow(ctx, c, lib, it, w.scale)
			done()
		}); err != nil {
			return err
		}
		traced.add(t)
		err := check(it, r)
		switch {
		case err != nil:
		case t.err != nil:
			err = fmt.Errorf("traced run: %w", t.err)
		case t.res.RatioCPD != r.res.RatioCPD || t.res.Evaluations != r.res.Evaluations:
			err = fmt.Errorf("traced run differs from the untraced one")
		default:
			err = probe.measure(it, c, t.res, t.front)
		}
		if err != nil {
			rep.fail("flow %s: %v", it, err)
		}
	}
	shares, err := cpu.shares()
	if err != nil {
		return err
	}
	probe.report(rep)
	for name, v := range shares {
		rep.set(name+".cpu_frac", v)
	}
	rep.set("trace.overhead_frac", traced.busy.Seconds()/plain.busy.Seconds()-1)
	return nil
}
