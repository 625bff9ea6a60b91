package exp

import (
	"context"
	"fmt"
	"time"

	als "repro"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/trace"
)

// Job is one cell of the evaluation's job graph: a single end-to-end Flow
// invocation pinned down by circuit, method, metric, budget and every
// stochastic or budget parameter. Identical cells shared between
// experiments (e.g. TABLE II and the loosest Fig. 7(a) point) carry the
// same canonical hash and therefore run — and persist — once.
//
// Method, metric and scale are stored by name rather than enum value so a
// persisted result store stays valid across constant renumbering, and the
// hash is computed from the canonical (sorted-key) JSON form, so it is
// independent of field order.
type Job struct {
	Circuit string  `json:"circuit"`
	Method  string  `json:"method"`
	Metric  string  `json:"metric"`
	Budget  float64 `json:"budget"`
	Scale   string  `json:"scale"`
	Seed    int64   `json:"seed"`
	// DepthWeight overrides wd (0 = the paper's default 0.8); Fig. 6 sets it.
	DepthWeight float64 `json:"depth_weight,omitempty"`
	// AreaConRatio scales the post-optimization area budget (0 = 1.0);
	// Fig. 8 sets it.
	AreaConRatio float64 `json:"area_con_ratio,omitempty"`
	// Population, Iterations, Vectors override the scale preset (0 = preset).
	Population int `json:"population,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	Vectors    int `json:"vectors,omitempty"`
}

// normalized maps parameter spellings that FlowConfig.resolve treats as
// the default onto the zero value, so e.g. the Fig. 8 ratio-1.0 cells and
// the Fig. 6 wd-0.8 cells hash identically to the TABLE II/III cells they
// recompute — one flow, one cache entry.
func (j Job) normalized() Job {
	if j.AreaConRatio == 1.0 {
		j.AreaConRatio = 0
	}
	if j.DepthWeight == 0.8 {
		j.DepthWeight = 0
	}
	return j
}

// Hash returns the job's canonical content hash — the key under which its
// result is cached in a store.Store. Default-equivalent parameter
// spellings (AreaConRatio 1.0, DepthWeight 0.8) hash as the default.
func (j Job) Hash() (string, error) { return store.Hash(j.normalized()) }

// String identifies the job in error messages and diffs.
func (j Job) String() string {
	s := fmt.Sprintf("%s/%s %s<=%g seed=%d scale=%s", j.Circuit, j.Method, j.Metric, j.Budget, j.Seed, j.Scale)
	if j.DepthWeight != 0 {
		s += fmt.Sprintf(" wd=%g", j.DepthWeight)
	}
	if j.AreaConRatio != 0 {
		s += fmt.Sprintf(" area=%gx", j.AreaConRatio)
	}
	return s
}

// JobResult is the persisted outcome of one job, in the units of the
// paper's tables. RatioCPD, Err and Evaluations are deterministic at a
// given job spec (PR 1's exactness guarantee) and are what the golden
// regression gate compares; RuntimeNS is wall clock and is never part of
// a hash, a golden diff, or machine-readable output.
type JobResult struct {
	RatioCPD    float64 `json:"ratio_cpd"`
	Err         float64 `json:"err"`
	Evaluations int     `json:"evaluations"`
	CPDOri      float64 `json:"cpd_ori"`
	CPDFac      float64 `json:"cpd_fac"`
	AreaCon     float64 `json:"area_con"`
	AreaFinal   float64 `json:"area_final"`
	RuntimeNS   int64   `json:"runtime_ns"`
}

// Run executes the job's flow. It is pure apart from wall-clock timing:
// the same job always yields the same RatioCPD/Err/Evaluations.
// evalWorkers caps the flow's internal candidate-evaluation pool (0 =
// GOMAXPROCS); it is a scheduling knob, never part of the job spec or its
// hash, because it cannot affect results.
func (j Job) Run(lib *cell.Library, evalWorkers int) (JobResult, error) {
	return j.RunContext(context.Background(), lib, evalWorkers)
}

// RunContext is Run with cooperative cancellation, forwarded to the flow's
// per-iteration context check. When ctx carries a trace span, the whole
// execution becomes a "job.run" child span (with the flow's per-generation
// spans under it); tracing observes the run without perturbing it.
func (j Job) RunContext(ctx context.Context, lib *cell.Library, evalWorkers int) (res JobResult, err error) {
	if sp := trace.FromContext(ctx).StartChild("job.run"); sp != nil {
		sp.SetAttr("circuit", j.Circuit)
		sp.SetAttr("method", j.Method)
		sp.SetAttr("metric", j.Metric)
		sp.SetAttr("seed", j.Seed)
		ctx = trace.ContextWith(ctx, sp)
		defer func() {
			status := "ok"
			if err != nil {
				status = "error"
			}
			sp.SetAttr("status", status)
			sp.End()
		}()
	}
	circuit, err := als.BenchmarkByName(j.Circuit)
	if err != nil {
		return JobResult{}, fmt.Errorf("exp: job %s: %w", j, err)
	}
	method, err := als.ParseMethod(j.Method)
	if err != nil {
		return JobResult{}, fmt.Errorf("exp: job %s: %w", j, err)
	}
	metric, err := als.ParseMetric(j.Metric)
	if err != nil {
		return JobResult{}, fmt.Errorf("exp: job %s: %w", j, err)
	}
	scale, err := als.ParseScale(j.Scale)
	if err != nil {
		return JobResult{}, fmt.Errorf("exp: job %s: %w", j, err)
	}
	fr, err := als.FlowContext(ctx, circuit, lib, als.FlowConfig{
		Metric:       metric,
		ErrorBudget:  j.Budget,
		Method:       method,
		Scale:        scale,
		AreaConRatio: j.AreaConRatio,
		DepthWeight:  j.DepthWeight,
		Population:   j.Population,
		Iterations:   j.Iterations,
		Vectors:      j.Vectors,
		EvalWorkers:  evalWorkers,
		Seed:         j.Seed,
	})
	if err != nil {
		return JobResult{}, fmt.Errorf("exp: job %s: %w", j, err)
	}
	return ResultOf(fr), nil
}

// ResultOf is the JobResult of a finished flow, wherever it ran.
func ResultOf(fr *als.FlowResult) JobResult {
	return JobResult{
		RatioCPD:    fr.RatioCPD,
		Err:         fr.Err,
		Evaluations: fr.Evaluations,
		CPDOri:      fr.CPDOri,
		CPDFac:      fr.CPDFac,
		AreaCon:     fr.AreaCon,
		AreaFinal:   fr.AreaFinal,
		RuntimeNS:   int64(fr.Runtime),
	}
}

// cellJob builds the job for one (circuit, method) cell under this Opts.
func (o Opts) cellJob(circuit string, m als.Method, metric core.Metric, budget float64) Job {
	return Job{
		Circuit:    circuit,
		Method:     m.String(),
		Metric:     metric.String(),
		Budget:     budget,
		Scale:      o.Scale.String(),
		Seed:       o.seed(),
		Population: o.Population,
		Iterations: o.Iterations,
		Vectors:    o.Vectors,
	}
}

// ---- per-experiment job lists ----------------------------------------------

// JobsFor returns the job list of one experiment by CLI name. table1 is
// pure analysis and has no jobs.
func JobsFor(name string, opts Opts) ([]Job, error) {
	switch name {
	case "table1":
		return nil, nil
	case "table2":
		return Table2Jobs(opts), nil
	case "table3":
		return Table3Jobs(opts), nil
	case "fig6":
		return Fig6Jobs(opts), nil
	case "fig7":
		return Fig7Jobs(opts), nil
	case "fig8":
		return Fig8Jobs(opts), nil
	}
	return nil, fmt.Errorf("exp: unknown experiment %q", name)
}

func compareJobs(opts Opts, kind gen.Kind, metric core.Metric, budget float64) []Job {
	var jobs []Job
	for _, name := range opts.circuitSet(kind) {
		for _, m := range opts.methods() {
			jobs = append(jobs, opts.cellJob(name, m, metric, budget))
		}
	}
	return jobs
}

// Table2Jobs lists the TABLE II cells (5% ER, random/control circuits).
func Table2Jobs(opts Opts) []Job {
	return compareJobs(opts, gen.RandomControl, core.MetricER, 0.05)
}

// Table3Jobs lists the TABLE III cells (2.44% NMED, arithmetic circuits).
func Table3Jobs(opts Opts) []Job {
	return compareJobs(opts, gen.Arithmetic, core.MetricNMED, 0.0244)
}

// fig6Weight maps a Fig. 6 sweep point to the job's DepthWeight field:
// FlowConfig treats 0 as "use the default", so wd=0 is encoded as 1e-9.
func fig6Weight(wd float64) float64 {
	if wd == 0 {
		return 1e-9
	}
	return wd
}

// Fig6Jobs lists the depth-weight sweep cells (DCGWO only).
func Fig6Jobs(opts Opts) []Job {
	var jobs []Job
	for _, s := range fig6Settings {
		for _, wd := range Fig6Weights {
			for _, name := range opts.circuitSet(s.kind) {
				j := opts.cellJob(name, als.MethodDCGWO, s.metric, s.budget)
				j.DepthWeight = fig6Weight(wd)
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// Fig7Jobs lists the error-constraint sweep cells.
func Fig7Jobs(opts Opts) []Job {
	var jobs []Job
	for _, m := range opts.sweepMethods() {
		for _, budget := range ERConstraints {
			for _, name := range opts.circuitSet(gen.RandomControl) {
				jobs = append(jobs, opts.cellJob(name, m, core.MetricER, budget))
			}
		}
		for _, budget := range NMEDConstraints {
			for _, name := range opts.circuitSet(gen.Arithmetic) {
				jobs = append(jobs, opts.cellJob(name, m, core.MetricNMED, budget))
			}
		}
	}
	return jobs
}

// Fig8Jobs lists the area-constraint sweep cells.
func Fig8Jobs(opts Opts) []Job {
	var jobs []Job
	for _, m := range opts.sweepMethods() {
		for _, ratio := range AreaRatios {
			for _, name := range opts.circuitSet(gen.RandomControl) {
				j := opts.cellJob(name, m, core.MetricER, 0.05)
				j.AreaConRatio = ratio
				jobs = append(jobs, j)
			}
			for _, name := range opts.circuitSet(gen.Arithmetic) {
				j := opts.cellJob(name, m, core.MetricNMED, 0.0244)
				j.AreaConRatio = ratio
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// ---- assemblers: pure functions (Opts, ResultSet) → table/figure -----------

// Cell is one (circuit, method) measurement.
type Cell struct {
	RatioCPD    float64
	Err         float64
	Evaluations int
	Runtime     time.Duration
}

// CompareRow is one circuit row of TABLE II/III.
type CompareRow struct {
	Circuit string
	AreaCon float64
	Cells   map[als.Method]Cell
}

// CompareTable holds a full method-comparison table plus averages.
type CompareTable struct {
	Metric  core.Metric
	Budget  float64
	Methods []als.Method
	Rows    []CompareRow
	// Avg maps each method to its average Ratiocpd across rows.
	Avg map[als.Method]float64
}

// Table2From assembles TABLE II from stored results.
func Table2From(opts Opts, rs ResultSet) (*CompareTable, error) {
	return compareFrom(opts, gen.RandomControl, core.MetricER, 0.05, rs)
}

// Table3From assembles TABLE III from stored results.
func Table3From(opts Opts, rs ResultSet) (*CompareTable, error) {
	return compareFrom(opts, gen.Arithmetic, core.MetricNMED, 0.0244, rs)
}

func compareFrom(opts Opts, kind gen.Kind, metric core.Metric, budget float64, rs ResultSet) (*CompareTable, error) {
	methods := opts.methods()
	table := &CompareTable{
		Metric:  metric,
		Budget:  budget,
		Methods: methods,
		Avg:     map[als.Method]float64{},
	}
	for _, name := range opts.circuitSet(kind) {
		row := CompareRow{Circuit: name, Cells: map[als.Method]Cell{}}
		for _, m := range methods {
			r, err := rs.get(opts.cellJob(name, m, metric, budget))
			if err != nil {
				return nil, err
			}
			row.AreaCon = r.AreaCon
			row.Cells[m] = Cell{RatioCPD: r.RatioCPD, Err: r.Err, Evaluations: r.Evaluations, Runtime: time.Duration(r.RuntimeNS)}
		}
		table.Rows = append(table.Rows, row)
	}
	for _, m := range methods {
		sum := 0.0
		for _, row := range table.Rows {
			sum += row.Cells[m].RatioCPD
		}
		if len(table.Rows) > 0 {
			table.Avg[m] = sum / float64(len(table.Rows))
		}
	}
	return table, nil
}

// WeightSeries is one Fig. 6 curve: average Ratiocpd per depth weight wd
// under one constraint setting.
type WeightSeries struct {
	Label   string
	Metric  core.Metric
	Budget  float64
	Weights []float64
	Ratio   []float64
}

// Fig6From assembles the Fig. 6 curves from stored results. Settings
// whose circuit set is emptied by a -circuits filter are skipped (their
// average would be undefined, and Fig6Jobs scheduled nothing for them).
func Fig6From(opts Opts, rs ResultSet) ([]WeightSeries, error) {
	var out []WeightSeries
	for _, s := range fig6Settings {
		names := opts.circuitSet(s.kind)
		if len(names) == 0 {
			continue
		}
		series := WeightSeries{Label: s.label, Metric: s.metric, Budget: s.budget, Weights: Fig6Weights}
		for _, wd := range Fig6Weights {
			sum := 0.0
			for _, name := range names {
				j := opts.cellJob(name, als.MethodDCGWO, s.metric, s.budget)
				j.DepthWeight = fig6Weight(wd)
				r, err := rs.get(j)
				if err != nil {
					return nil, err
				}
				sum += r.RatioCPD
			}
			series.Ratio = append(series.Ratio, sum/float64(len(names)))
		}
		out = append(out, series)
	}
	return out, nil
}

// SweepSeries is one curve of Fig. 7/8: average Ratiocpd per x-value for
// one method.
type SweepSeries struct {
	Method als.Method
	X      []float64
	Ratio  []float64
}

// sweepPoint is one x-axis point of a Fig. 7/8 curve: the error budget
// and post-optimization area ratio of its cells.
type sweepPoint struct{ budget, ratio float64 }

func budgetPoints(budgets []float64) []sweepPoint {
	points := make([]sweepPoint, len(budgets))
	for i, b := range budgets {
		points[i] = sweepPoint{budget: b}
	}
	return points
}

func ratioPoints(budget float64, ratios []float64) []sweepPoint {
	points := make([]sweepPoint, len(ratios))
	for i, r := range ratios {
		points[i] = sweepPoint{budget: budget, ratio: r}
	}
	return points
}

// Fig7From assembles the error-constraint sweep from stored results.
func Fig7From(opts Opts, rs ResultSet) (er, nmed []SweepSeries, err error) {
	er, err = sweepFrom(opts, rs, gen.RandomControl, core.MetricER, ERConstraints, budgetPoints(ERConstraints))
	if err != nil {
		return nil, nil, err
	}
	nmed, err = sweepFrom(opts, rs, gen.Arithmetic, core.MetricNMED, NMEDConstraints, budgetPoints(NMEDConstraints))
	return er, nmed, err
}

// Fig8From assembles the area-constraint sweep from stored results.
func Fig8From(opts Opts, rs ResultSet) (er, nmed []SweepSeries, err error) {
	er, err = sweepFrom(opts, rs, gen.RandomControl, core.MetricER, AreaRatios, ratioPoints(0.05, AreaRatios))
	if err != nil {
		return nil, nil, err
	}
	nmed, err = sweepFrom(opts, rs, gen.Arithmetic, core.MetricNMED, AreaRatios, ratioPoints(0.0244, AreaRatios))
	return er, nmed, err
}

// sweepFrom averages RatioCPD per sweep point over the kind's circuit
// set, one series per method. An empty circuit set (a -circuits filter
// that excludes the whole kind) yields no series rather than NaN points.
func sweepFrom(opts Opts, rs ResultSet, kind gen.Kind, metric core.Metric, xs []float64, points []sweepPoint) ([]SweepSeries, error) {
	names := opts.circuitSet(kind)
	if len(names) == 0 {
		return nil, nil
	}
	var out []SweepSeries
	for _, m := range opts.sweepMethods() {
		series := SweepSeries{Method: m, X: xs}
		for _, p := range points {
			sum := 0.0
			for _, name := range names {
				j := opts.cellJob(name, m, metric, p.budget)
				j.AreaConRatio = p.ratio
				r, err := rs.get(j)
				if err != nil {
					return nil, err
				}
				sum += r.RatioCPD
			}
			series.Ratio = append(series.Ratio, sum/float64(len(names)))
		}
		out = append(out, series)
	}
	return out, nil
}
