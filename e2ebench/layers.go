//go:build e2elayers

// The traced run's layer probe. It calls the engine's internal packages
// directly, so it builds only while they keep these signatures: run.sh
// builds with the e2elayers tag and falls back to layers_absent.go, which
// reports the engine layer metrics as absent instead of failing.

package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	als "repro"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/errest"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/store"
	"repro/internal/trace"
)

// probeCandidates is how many one-LAC candidates the probe builds and
// evaluates per flow.
const probeCandidates = 8

type layerProbe struct {
	lib     *cell.Library
	vectors int
	tracer  *trace.Tracer

	flows, candidates int
	evals             int64
	lookups, hits     int64
	allocBytes        uint64
	gcCPU, totalCPU   float64
}

func newLayerProbe(lib *cell.Library, vectors int) *layerProbe {
	return &layerProbe{
		lib: lib, vectors: vectors,
		tracer: trace.New(trace.Options{Service: "e2ebench", Capacity: 1 << 17}),
	}
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func float(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

const (
	allocMetric = "/gc/heap/allocs:bytes"
	gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"
	cpuMetric   = "/cpu/classes/total:cpu-seconds"
)

// timeBuilds times als.BenchmarkByName on every circuit of the list.
func (p *layerProbe) timeBuilds(items []flowItem) {
	seen := map[string]bool{}
	for _, it := range items {
		if seen[it.Circuit] {
			continue
		}
		seen[it.Circuit] = true
		sp := p.tracer.StartRoot("gen.build")
		als.BenchmarkByName(it.Circuit) //nolint:errcheck // the list's circuits were built in set-up
		sp.End()
	}
}

// flowContext wraps one flow in a "bench.flow" span that reaches the
// session through trace.ContextWith, so the flow's own als.generation and
// als.post_optimize spans nest under it, and counts its allocations and
// its collector CPU. The runtime updates the CPU classes when a
// collection ends, so the flow should start right after one (see
// cpuTally.profile); its share then covers the collections it triggered.
func (p *layerProbe) flowContext(ctx context.Context) (context.Context, func()) {
	sp := p.tracer.StartRoot("bench.flow")
	before := readMetrics(allocMetric, gcCPUMetric, cpuMetric)
	return trace.ContextWith(ctx, sp), func() {
		after := readMetrics(allocMetric, gcCPUMetric, cpuMetric)
		p.allocBytes += uint64(float(after[0]) - float(before[0]))
		p.gcCPU += float(after[1]) - float(before[1])
		p.totalCPU += float(after[2]) - float(before[2])
		sp.End()
	}
}

// timed runs fn under a span named for the layer call it makes.
func (p *layerProbe) timed(parent *trace.Span, name string, fn func() error) error {
	sp := parent.StartChild(name)
	err := fn()
	sp.End()
	return err
}

// measure calls each engine layer's public functions on one flow's
// accurate circuit and its own approximate circuits, under spans.
func (p *layerProbe) measure(it flowItem, accurate *netlist.Circuit, res *als.FlowResult, front als.Front) error {
	p.flows++
	p.evals += int64(res.Evaluations)
	p.lookups += res.Cache.Lookups
	p.hits += res.Cache.Hits

	root := p.tracer.StartRoot("bench.probe")
	defer root.End()
	circuits := []*netlist.Circuit{accurate, res.Approx, res.Final}
	for _, sol := range front {
		circuits = append(circuits, sol.Circuit)
	}
	for _, c := range circuits {
		if err := p.timed(root, "sta.analyze", func() error { _, err := sta.Analyze(c, p.lib); return err }); err != nil {
			return err
		}
		p.timed(root, "netlist.clone", func() error { c.Clone(); return nil }) //nolint:errcheck
	}

	var post *sizing.Result
	if err := p.timed(root, "sizing.post_optimize", func() (err error) {
		post, err = sizing.PostOptimize(res.Approx, p.lib, sizing.Options{AreaCon: res.AreaCon})
		return err
	}); err != nil {
		return err
	}
	if post.Report.CPD != res.CPDFac {
		return fmt.Errorf("probe: re-running post-optimization gives CPD %v, flow reported %v", post.Report.CPD, res.CPDFac)
	}

	base := accurate.Clone()
	base.Const0()
	base.Const1()
	vec := sim.Random(rand.New(rand.NewSource(it.Seed)), len(base.PIs), p.vectors)
	var ev *core.Evaluator
	if err := p.timed(root, "core.setup", func() (err error) {
		ev, err = core.NewEvaluator(base, p.lib, it.Metric, 0.8, vec)
		return err
	}); err != nil {
		return err
	}
	est, err := errest.New(base, vec)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig(it.Metric, it.Budget)
	rng := rand.New(rand.NewSource(it.Seed))
	cands := make([]*netlist.Circuit, 0, probeCandidates)
	for k := 0; k < probeCandidates; k++ {
		var cl *netlist.Circuit
		p.timed(root, "netlist.clone", func() error { cl = res.Approx.Clone(); return nil }) //nolint:errcheck
		var sr *sim.Result
		if err := p.timed(root, "sim.simulate", func() (err error) { sr, err = ev.Simulate(cl); return err }); err != nil {
			return err
		}
		if err := p.timed(root, "errest.metrics", func() error { _, err := est.MetricsFromResult(cl, sr); return err }); err != nil {
			return err
		}
		var rep *sta.Report
		if err := p.timed(root, "sta.analyze", func() (err error) { rep, err = sta.Analyze(cl, p.lib); return err }); err != nil {
			return err
		}
		ok := false
		p.timed(root, "lac.search", func() error { //nolint:errcheck
			_, ok = lac.SearchN(cl, sr, rep, rng, cfg.CritMargin, cfg.SearchTries)
			return nil
		})
		if !ok {
			lac.RandomChange(cl, sr, rng)
		}
		cands = append(cands, cl)
	}
	p.candidates += len(cands)
	return p.timed(root, "core.evaluate", func() error { _, err := ev.EvaluateBatch(cands); return err })
}

// report turns the collected spans and counters into per-layer metrics.
func (p *layerProbe) report(rep *report) {
	total := map[string]time.Duration{}
	count := map[string]int{}
	for _, r := range p.tracer.Snapshot() {
		total[r.Name] += r.Duration()
		count[r.Name]++
	}
	if st := p.tracer.Stats(); st.Dropped > 0 {
		fmt.Fprintf(os.Stderr, "e2ebench: trace ring dropped %d spans\n", st.Dropped)
	}
	perCall := func(name string, unit time.Duration) float64 {
		if count[name] == 0 {
			return 0
		}
		return float64(total[name]) / float64(count[name]) / float64(unit)
	}
	set := func(metric, span string, unit time.Duration) {
		if count[span] > 0 {
			rep.set(metric, perCall(span, unit))
		}
	}
	set("sta.analyze_us", "sta.analyze", time.Microsecond)
	set("netlist.clone_us", "netlist.clone", time.Microsecond)
	set("sizing.post_optimize_ms", "sizing.post_optimize", time.Millisecond)
	set("sim.simulate_us", "sim.simulate", time.Microsecond)
	set("errest.metrics_us", "errest.metrics", time.Microsecond)
	set("lac.search_us", "lac.search", time.Microsecond)
	set("core.setup_ms", "core.setup", time.Millisecond)
	set("gen.build_ms", "gen.build", time.Millisecond)
	if p.candidates > 0 {
		rep.set("core.evaluate_us", float64(total["core.evaluate"])/float64(p.candidates)/float64(time.Microsecond))
	}
	if p.flows > 0 {
		n := float64(p.flows)
		rep.set("core.evals_per_flow", float64(p.evals)/n)
		rep.set("runtime.alloc_mb_per_flow", float64(p.allocBytes)/n/(1<<20))
		if count["als.generation"] > 0 {
			rep.set("als.optimize_ms", ms(total["als.generation"])/n)
		}
		if count["als.post_optimize"] > 0 {
			rep.set("als.post_opt_ms", ms(total["als.post_optimize"])/n)
		}
	}
	if p.lookups > 0 {
		rep.set("core.cache_hit_ratio", float64(p.hits)/float64(p.lookups))
	}
	if p.totalCPU > 0 {
		rep.set("runtime.gc_cpu_frac", p.gcCPU/p.totalCPU)
	}
}

// storeGetUS opens each store file with the repo's store engine and
// reads every given hash back, returning the mean microseconds per Get
// with the Open amortized over the reads.
func storeGetUS(files []string, hashes []string) (float64, bool, error) {
	var elapsed time.Duration
	gets := 0
	for _, f := range files {
		start := time.Now()
		st, err := store.Open(f)
		if err != nil {
			return 0, true, err
		}
		for _, h := range hashes {
			st.Get(h)
			gets++
		}
		elapsed += time.Since(start)
		st.Close()
	}
	if gets == 0 {
		return 0, true, nil
	}
	return float64(elapsed) / float64(gets) / float64(time.Microsecond), true, nil
}
