// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section. Each bench runs a scaled-down but
// structurally complete version of its experiment (small circuit subset,
// quick optimizer budget) and reports the headline metric via b.ReportMetric
// so `go test -bench=.` regenerates the paper's quantities:
//
//	BenchmarkTable1Stats      — TABLE I  (benchmark statistics)
//	BenchmarkTable2ER         — TABLE II (5% ER comparison, avg Ratiocpd)
//	BenchmarkTable3NMED       — TABLE III (2.44% NMED comparison)
//	BenchmarkFig6WeightSweep  — Fig. 6   (depth-weight sweep)
//	BenchmarkFig7ErrorSweep   — Fig. 7   (error-constraint sweep)
//	BenchmarkFig8AreaSweep    — Fig. 8   (area-constraint sweep)
//
// Three end-to-end flow benches at the shared workload shape
// (bench_workload_test.go) are gated by cmd/benchgate: BenchmarkFlowSingle
// (DCGWO, quick budget), BenchmarkFlowPaper (DCGWO, paper preset) and
// BenchmarkFlowGreedy (VECBEE-S, quick preset).
//
// Full-scale regeneration: `go run ./cmd/experiments -exp all -scale paper`.
package als_test

import (
	"testing"

	als "repro"
	"repro/internal/exp"
)

// benchOpts is the scaled-down experiment configuration used inside the
// benchmarks: two small random/control circuits, two small arithmetic
// circuits, quick optimizer budget.
func benchOpts() exp.Opts {
	return exp.Opts{
		Circuits:   []string{"c880", "c1908", "Adder16", "Max16", "Int2float"},
		Seed:       1,
		Population: 8,
		Iterations: 6,
		Vectors:    2048,
	}
}

func BenchmarkTable1Stats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 15 {
			b.Fatal("TABLE I must have 15 rows")
		}
	}
}

func BenchmarkTable2ER(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		tab, err := exp.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avg = tab.Avg[als.MethodDCGWO]
	}
	b.ReportMetric(avg, "ratio_cpd_ours")
}

func BenchmarkTable3NMED(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		tab, err := exp.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		avg = tab.Avg[als.MethodDCGWO]
	}
	b.ReportMetric(avg, "ratio_cpd_ours")
}

func BenchmarkFig6WeightSweep(b *testing.B) {
	opts := benchOpts()
	opts.Circuits = []string{"c880", "Max16"}
	var atPaperWeight float64
	for i := 0; i < b.N; i++ {
		series, err := exp.Fig6(opts)
		if err != nil {
			b.Fatal(err)
		}
		// Report the loosest-NMED curve — series[3], "NMED 2.44%", the
		// last of exp.Fig6's four constraint settings — at the paper's
		// wd = 0.8, which is exp.Fig6Weights[4].
		atPaperWeight = series[3].Ratio[4]
	}
	b.ReportMetric(atPaperWeight, "ratio_cpd_wd0.8")
}

func BenchmarkFig7ErrorSweep(b *testing.B) {
	opts := benchOpts()
	opts.Circuits = []string{"c880", "Max16"}
	opts.Methods = []als.Method{als.MethodHEDALS, als.MethodDCGWO}
	var loosest float64
	for i := 0; i < b.N; i++ {
		er, _, err := exp.Fig7(opts)
		if err != nil {
			b.Fatal(err)
		}
		// Ours at the loosest ER point.
		loosest = er[1].Ratio[len(er[1].Ratio)-1]
	}
	b.ReportMetric(loosest, "ratio_cpd_er5")
}

func BenchmarkFig8AreaSweep(b *testing.B) {
	opts := benchOpts()
	opts.Circuits = []string{"c880", "Max16"}
	opts.Methods = []als.Method{als.MethodDCGWO}
	var at12 float64
	for i := 0; i < b.N; i++ {
		er, _, err := exp.Fig8(opts)
		if err != nil {
			b.Fatal(err)
		}
		at12 = er[0].Ratio[len(er[0].Ratio)-1]
	}
	b.ReportMetric(at12, "ratio_cpd_1.2x")
}

// BenchmarkFlowSingle measures one end-to-end DCGWO flow (the unit of
// every table cell) at the shared workload shape pinned in
// bench_workload_test.go.
func BenchmarkFlowSingle(b *testing.B) {
	lib := als.NewLibrary()
	c := als.Benchmark(benchWorkloadCircuit)
	for i := 0; i < b.N; i++ {
		if _, err := als.Flow(c, lib, als.FlowConfig{
			Metric:      als.MetricNMED,
			ErrorBudget: benchWorkloadNMED,
			Population:  benchWorkloadPop,
			Iterations:  benchWorkloadIters,
			Vectors:     benchWorkloadVectors,
			Seed:        benchWorkloadSeed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowPaper measures one end-to-end DCGWO flow at the paper
// preset (N = 30, Imax = 20, 131072 vectors), where the searching actions
// and evaluations of a generation run on the evaluation pipeline.
func BenchmarkFlowPaper(b *testing.B) {
	lib := als.NewLibrary()
	c := als.Benchmark(benchFlowPaperCircuit)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := als.Flow(c, lib, als.FlowConfig{
			Metric:      als.MetricER,
			ErrorBudget: benchFlowPaperER,
			Scale:       als.ScalePaper,
			Seed:        benchWorkloadSeed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlowGreedy measures one end-to-end VECBEE-S flow at the quick
// preset, whose greedy rounds evaluate each candidate as a change of the
// round's current circuit. fallbacks/op counts its evaluations timed by a
// full STA.
func BenchmarkFlowGreedy(b *testing.B) {
	lib := als.NewLibrary()
	c := als.Benchmark(benchWorkloadCircuit)
	b.ReportAllocs()
	var fallbacks int64
	for i := 0; i < b.N; i++ {
		res, err := als.Flow(c, lib, als.FlowConfig{
			Metric:      als.MetricNMED,
			ErrorBudget: benchWorkloadNMED,
			Method:      als.MethodVecbeeSasimi,
			Vectors:     benchWorkloadVectors,
			Seed:        benchWorkloadSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		fallbacks += res.Cache.Fallbacks
	}
	b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
}
