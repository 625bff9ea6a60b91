// Package als is the public facade of the timing-driven approximate logic
// synthesis framework (DATE 2025, "Timing-driven Approximate Logic
// Synthesis Based on Double-chase Grey Wolf Optimizer").
//
// The full flow mirrors the paper's Fig. 2:
//
//  1. Circuit representation — a gate-level netlist stored as gate fan-in
//     adjacency lists (package internal/netlist), read from structural
//     Verilog or produced by the built-in benchmark generators.
//  2. DCGWO — the double-chase grey wolf optimizer explores LACs under an
//     ER or NMED constraint, optimizing critical-path depth and area
//     simultaneously (package internal/core). The baselines of the
//     paper's tables are available through the same entry point.
//  3. Post-optimization — dangling-gate deletion and gate resizing under
//     an area constraint convert area savings into further critical-path
//     delay reduction (package internal/sizing).
//
// A three-line quickstart:
//
//	circuit := als.Benchmark("Adder16")
//	res, _ := als.Flow(circuit, als.NewLibrary(), als.FlowConfig{
//		Metric: als.MetricNMED, ErrorBudget: 0.0244})
//	fmt.Printf("Ratio_cpd = %.4f\n", res.RatioCPD)
//
// The session API (v2) is the preferred entry point for new code: it
// configures a run with functional options (so legal zero values like
// WithDepthWeight(0) are expressible), streams the run as an event
// sequence, and returns the optimizer's whole delay/error/area trade-off
// front rather than only the single best solution:
//
//	sess, _ := als.NewSession(circuit, als.NewLibrary(),
//		als.WithMetric(als.MetricNMED), als.WithErrorBudget(0.0244))
//	res, front, _ := sess.Collect(ctx)
//
// Flow and FlowContext are thin shims over the same engine and stay
// bit-identical to sessions at the same effective configuration and
// seed; see NewSession, Session.Run, Option and Front.
package als

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// Metric selects the constrained error measure (ER or NMED).
type Metric = core.Metric

// Re-exported metric constants.
const (
	// MetricER constrains the error rate (random/control circuits).
	MetricER = core.MetricER
	// MetricNMED constrains the normalized mean error distance
	// (arithmetic circuits).
	MetricNMED = core.MetricNMED
)

// Method selects the optimizer driving step 2 of the flow.
type Method uint8

const (
	// MethodDCGWO is the paper's contribution (default).
	MethodDCGWO Method = iota
	// MethodVecbeeSasimi is the area-driven greedy baseline.
	MethodVecbeeSasimi
	// MethodVaACS is the genetic depth-driven baseline.
	MethodVaACS
	// MethodHEDALS is the delay-driven greedy baseline.
	MethodHEDALS
	// MethodSingleChaseGWO is the traditional grey wolf optimizer.
	MethodSingleChaseGWO
)

// String names the method as in the paper's tables.
func (m Method) String() string {
	switch m {
	case MethodDCGWO:
		return "Ours"
	case MethodVecbeeSasimi:
		return baselines.VecbeeSasimi.String()
	case MethodVaACS:
		return baselines.VaACS.String()
	case MethodHEDALS:
		return baselines.HEDALS.String()
	case MethodSingleChaseGWO:
		return baselines.SingleChaseGWO.String()
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// AllMethods lists every optimizer in the tables' column order.
func AllMethods() []Method {
	return []Method{MethodVecbeeSasimi, MethodVaACS, MethodHEDALS, MethodSingleChaseGWO, MethodDCGWO}
}

// methodAliases maps accepted lower-cased spellings onto the canonical
// Method, beyond the lower-cased paper-table names ("ours", "hedals",
// "vecbee-s", "vaacs", "gwo (single-chase)") that ParseMethod always
// accepts. The service API parses untrusted client input through
// ParseMethod, so the common informal spellings are accepted too.
var methodAliases = map[string]Method{
	"dcgwo":            MethodDCGWO,
	"vecbee-sasimi":    MethodVecbeeSasimi,
	"sasimi":           MethodVecbeeSasimi,
	"gwo":              MethodSingleChaseGWO,
	"single-chase-gwo": MethodSingleChaseGWO,
	"singlechasegwo":   MethodSingleChaseGWO,
}

// ParseMethod inverts Method.String: it maps a paper-table method name
// (e.g. "Ours", "HEDALS") back to the Method. The experiment job store
// persists methods by name, not by enum value, so stored results stay
// valid even if the Method constants are ever renumbered. Matching is
// case-insensitive and accepts common aliases ("dcgwo", "sasimi",
// "single-chase-gwo"), since the serving API parses untrusted input
// through here; canonical spellings remain the Method.String values.
func ParseMethod(name string) (Method, error) {
	folded := strings.ToLower(strings.TrimSpace(name))
	for _, m := range AllMethods() {
		if strings.ToLower(m.String()) == folded {
			return m, nil
		}
	}
	if m, ok := methodAliases[folded]; ok {
		return m, nil
	}
	return 0, fmt.Errorf("als: unknown method %q", name)
}

// ParseMetric maps a metric name ("ER" or "NMED", case-insensitively)
// back to the Metric.
func ParseMetric(name string) (Metric, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "er":
		return MetricER, nil
	case "nmed":
		return MetricNMED, nil
	}
	return 0, fmt.Errorf("als: unknown metric %q", name)
}

// Scale presets the run budget.
type Scale uint8

const (
	// ScaleQuick targets seconds per benchmark (CI, tests, go test
	// -bench): smaller population, fewer iterations, fewer vectors.
	ScaleQuick Scale = iota
	// ScalePaper uses the paper's parameters (N=30, Imax=20) and a large
	// Monte-Carlo sample.
	ScalePaper
)

// String names the scale preset ("quick" or "paper").
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScalePaper:
		return "paper"
	}
	return fmt.Sprintf("Scale(%d)", uint8(s))
}

// ParseScale inverts Scale.String, case-insensitively.
func ParseScale(name string) (Scale, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "quick":
		return ScaleQuick, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("als: unknown scale %q", name)
}

// FlowConfig configures one end-to-end run.
type FlowConfig struct {
	// Metric and ErrorBudget set the error constraint.
	Metric      core.Metric
	ErrorBudget float64
	// Method picks the optimizer; zero value is DCGWO.
	Method Method
	// Scale presets population/iterations/vectors; individual overrides
	// below win when non-zero.
	Scale Scale
	// AreaConRatio scales the post-optimization area constraint relative
	// to the accurate circuit's area (paper Fig. 8 sweeps 0.8-1.2);
	// zero means 1.0 — the paper's TABLE II/III setting Areacon ≈ Areaori.
	AreaConRatio float64
	// DepthWeight overrides wd (zero keeps the paper's 0.8).
	DepthWeight float64
	// Population, Iterations, Vectors override the scale preset.
	Population, Iterations, Vectors int
	// EvalWorkers caps the goroutines one flow keeps busy, its own
	// included (0 = GOMAXPROCS). Evaluation is pure, so results are
	// bit-identical at any value; schedulers that run several flows
	// concurrently set it so nested pools don't oversubscribe the machine.
	EvalWorkers int
	// Progress, when non-nil, is invoked once per optimizer iteration
	// (DCGWO) or round (baselines) from the flow's goroutine. It draws no
	// randomness, so installing it never changes results; the alsd
	// service uses it to report live per-job progress.
	Progress func(FlowProgress)
	// Seed fixes all stochastic choices.
	Seed int64
}

// FlowProgress is one live progress report of a running flow.
type FlowProgress struct {
	// Iter counts completed optimizer iterations; Total is the configured
	// maximum (the run may converge and stop earlier).
	Iter, Total int
	// BestRatioCPD is the best individual's delay so far over CPDori —
	// an upper bound on the final RatioCPD, which post-optimization can
	// only improve.
	BestRatioCPD float64
	// BestErr is the best individual's error under the configured metric.
	BestErr float64
	// Evaluations counts circuit evaluations so far.
	Evaluations int
}

// resolve maps every zero value onto the paper default. It shares the
// sessionConfig defaults table (with no explicit-set flags raised), so
// the v1 shims and option-built sessions can never drift apart.
func (f FlowConfig) resolve() FlowConfig {
	return sessionConfig{cfg: f}.resolved()
}

// FlowResult reports one end-to-end run in the units of the paper's
// tables.
type FlowResult struct {
	// Circuit names the design.
	Circuit string
	// Method names the optimizer.
	Method Method
	// CPDOri and AreaOri describe the accurate circuit.
	CPDOri, AreaOri float64
	// CPDFac is the final critical path delay after post-optimization.
	CPDFac float64
	// RatioCPD = CPDFac / CPDOri — the paper's headline metric.
	RatioCPD float64
	// AreaCon is the post-optimization area budget; AreaFinal the result.
	AreaCon, AreaFinal float64
	// Err is the best individual's error under the configured metric.
	Err float64
	// Runtime is the wall-clock optimization + post-optimization time.
	Runtime time.Duration
	// Evaluations counts circuit evaluations.
	Evaluations int
	// Approx is the optimizer's best netlist before post-optimization;
	// Final is the compacted, resized netlist.
	Approx, Final *netlist.Circuit
	// History is DCGWO's convergence trace (nil for baselines).
	History []core.IterStats
	// Cache reports the evaluation cache's effectiveness over the run.
	Cache EvalCacheStats
}

// EvalCacheStats reports how effective the generation-scoped evaluation
// cache was over one run: every optimizer evaluation of a cache-eligible
// candidate counts as a lookup, and hits are candidates answered entirely
// from an earlier identical evaluation of the same generation. The greedy
// baselines (VECBEE-S, HEDALS) evaluate each round's candidates against
// the round's current circuit instead, outside the cache: those are
// neither lookups nor fallbacks. The counters are observability only —
// results are bit-identical whether the cache hits or not.
type EvalCacheStats struct {
	// Lookups counts cache-eligible candidate evaluations; Hits the ones
	// answered from the whole-candidate memo.
	Lookups, Hits int64
	// Fallbacks counts evaluations that bypassed the cache and were timed
	// by a full STA (candidates outside the accurate circuit's gate ID
	// space).
	Fallbacks int64
	// Generations counts cache resets at optimizer generation boundaries.
	Generations int64
}

// HitRatio returns Hits/Lookups, or 0 before any lookup.
func (s EvalCacheStats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

func evalCacheStatsFrom(c core.CacheStats) EvalCacheStats {
	return EvalCacheStats{
		Lookups:     c.Lookups,
		Hits:        c.Hits,
		Fallbacks:   c.Fallbacks,
		Generations: c.Generations,
	}
}

// NewLibrary returns the synthetic 28nm-class cell library.
func NewLibrary() *cell.Library { return cell.Default28nm() }

// Benchmark builds one of the paper's TABLE I circuits by name
// (e.g. "Adder16", "c6288"). It panics on unknown names — a documented
// convenience for examples and benchmarks where the name is a literal;
// code handling untrusted or configured names uses BenchmarkByName.
func Benchmark(name string) *netlist.Circuit { return gen.MustBuild(name) }

// BenchmarkByName builds one of the paper's TABLE I circuits by name,
// returning an error wrapping ErrUnknownBenchmark (with the valid names)
// instead of panicking — the entry point for CLI flags and service
// request validation.
func BenchmarkByName(name string) (*netlist.Circuit, error) {
	b, ok := gen.ByName(name)
	if !ok {
		return nil, fmt.Errorf("%w %q (valid: %s)", ErrUnknownBenchmark, name, strings.Join(gen.Names(), ", "))
	}
	return b.Build(), nil
}

// BenchmarkNames lists the TABLE I circuit names in paper order.
func BenchmarkNames() []string { return gen.Names() }

// ParseVerilog reads a structural-Verilog netlist over the cell library.
func ParseVerilog(src string) (*netlist.Circuit, error) { return verilog.Parse(src) }

// WriteVerilog renders a netlist as structural Verilog.
func WriteVerilog(c *netlist.Circuit) string { return verilog.Write(c) }

// Flow runs the complete three-step framework on an accurate circuit and
// returns the paper's reporting metrics.
func Flow(accurate *netlist.Circuit, lib *cell.Library, cfg FlowConfig) (*FlowResult, error) {
	return FlowContext(context.Background(), accurate, lib, cfg)
}

// FlowContext is Flow with cooperative cancellation: the context is
// checked once per optimizer iteration, and a cancelled flow returns an
// error wrapping ctx.Err(). Cancellation checks draw no randomness, so an
// uncancelled FlowContext run is bit-identical to Flow at the same seed,
// and re-running a cancelled flow reproduces the result the uncancelled
// run would have produced.
//
// Flow and FlowContext are the frozen v1 shims over the session engine
// (runFlow): a FlowConfig resolves its zero values to the paper defaults
// and runs exactly the configuration the equivalent option-built Session
// would, so both entry points are bit-identical at the same seed. New
// code should prefer NewSession, which streams progress and returns the
// whole trade-off front; an infeasible run reports ErrInfeasible.
func FlowContext(ctx context.Context, accurate *netlist.Circuit, lib *cell.Library, cfg FlowConfig) (*FlowResult, error) {
	res, _, err := runFlow(ctx, accurate, lib, cfg.resolve(), runHooks{progress: cfg.Progress})
	return res, err
}
