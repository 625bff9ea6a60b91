// Micro-benchmarks for the incremental evaluation subsystem, next to the
// table benches so one `go test -bench=.` shows both the paper metrics
// and the engine's hot-path numbers:
//
//	BenchmarkSimRunFull          — from-scratch sim.Run of one candidate
//	BenchmarkSimRunIncremental   — same candidate through Simulator.Simulate
//	BenchmarkEvaluateBatch       — a population's worth of candidates through
//	                               Evaluator.EvaluateBatch (sim + STA + error
//	                               metrics per candidate)
//	BenchmarkEvaluateBatchShared — same, on a population with the redundancy
//	                               a real generation exhibits (duplicate
//	                               candidates + disjoint-cone changes), with
//	                               the evaluation cache reset per iteration
//	BenchmarkEvaluateBatchWide   — a population's worth of candidates of the
//	                               128-bit Adder, whose 129 POs take the
//	                               error estimator's wide-output scan, with
//	                               the evaluation cache reset per iteration
//	BenchmarkEvaluateBatchPaper  — a population's worth of Max16 candidates
//	                               at the paper preset's 131072 vectors,
//	                               where the error-distance kernel dominates,
//	                               with the evaluation cache reset per
//	                               iteration
//	BenchmarkEvaluateBatchPaperER — a population's worth of Cavlc candidates
//	                               at 131072 vectors under the ER
//	                               constraint, where the evaluator counts
//	                               ER and per-PO errors only, with the
//	                               evaluation cache reset per iteration
//	BenchmarkLACSearchPaper      — DCGWO's searching action on Cavlc
//	                               candidates at 131072 vectors, where
//	                               switch selection dominates
//	BenchmarkPostOptimize        — the flow's step 3, sizing.PostOptimize of
//	                               one candidate under the accurate circuit's
//	                               area (dangling deletion + resizing)
//	BenchmarkCandidateClone      — candidate construction: Clone the 128-bit
//	                               Adder and apply two LACs drawn outside
//	                               the timer
//
// All use the bench_workload_test.go workload shape (Adder16 — Adder for
// the wide bench, Max16 and Cavlc for the paper-preset ones — 2048
// vectors or the paper's 131072, LAC-mutated candidates), pinned there so
// the committed benchgate baselines provably measure the same shape.
package als_test

import (
	"math/rand"
	"testing"

	als "repro"
	"repro/internal/core"
	"repro/internal/lac"
	"repro/internal/sim"
	"repro/internal/sizing"
	"repro/internal/sta"
)

func BenchmarkSimRunFull(b *testing.B) {
	base := benchBase(b, benchWorkloadCircuit)
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchWorkloadVectors)
	cand := benchCandidates(b, base, 1, benchWorkloadLACs)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(cand, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimRunIncremental(b *testing.B) {
	base := benchBase(b, benchWorkloadCircuit)
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchWorkloadVectors)
	cand := benchCandidates(b, base, 1, benchWorkloadLACs)[0]
	s, err := sim.NewSimulator(base, v, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Simulate(cand); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateBatch(b *testing.B) {
	base := benchBase(b, benchWorkloadCircuit)
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchWorkloadVectors)
	eval, err := core.NewEvaluator(base, als.NewLibrary(), core.MetricNMED, 0.8, v)
	if err != nil {
		b.Fatal(err)
	}
	cands := benchCandidates(b, base, benchWorkloadBatch, benchWorkloadLACs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.EvaluateBatch(cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatchWide evaluates a population slice of LAC
// candidates of the 128-bit Adder with the cache cold at the start of
// every iteration (BeginGeneration), so each candidate pays its
// simulation, its wide-output error scan over 129 POs and its timing.
func BenchmarkEvaluateBatchWide(b *testing.B) {
	base := benchBase(b, benchWideCircuit)
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchWorkloadVectors)
	eval, err := core.NewEvaluator(base, als.NewLibrary(), core.MetricNMED, 0.8, v)
	if err != nil {
		b.Fatal(err)
	}
	cands := benchCandidates(b, base, benchWorkloadBatch, benchWorkloadLACs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.BeginGeneration()
		if _, err := eval.EvaluateBatch(cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatchPaper evaluates a population slice of Max16 LAC
// candidates at the paper preset's sample size with the cache cold at the
// start of every iteration (BeginGeneration), so each candidate pays its
// simulation, its error distance over 131072 vectors and its timing.
func BenchmarkEvaluateBatchPaper(b *testing.B) {
	base := benchBase(b, benchPaperCircuit)
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchPaperVectors)
	eval, err := core.NewEvaluator(base, als.NewLibrary(), core.MetricNMED, 0.8, v)
	if err != nil {
		b.Fatal(err)
	}
	cands := benchCandidates(b, base, benchWorkloadBatch, benchWorkloadLACs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.BeginGeneration()
		if _, err := eval.EvaluateBatch(cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateBatchPaperER evaluates a population slice of Cavlc LAC
// candidates at the paper preset's sample size under the ER constraint,
// with the cache cold at the start of every iteration (BeginGeneration):
// each candidate pays its simulation, its ER and per-PO error counts over
// 131072 vectors (an ER evaluator computes no error distance) and its
// timing.
func BenchmarkEvaluateBatchPaperER(b *testing.B) {
	base := benchBase(b, benchSearchCircuit)
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchPaperVectors)
	eval, err := core.NewEvaluator(base, als.NewLibrary(), core.MetricER, 0.8, v)
	if err != nil {
		b.Fatal(err)
	}
	cands := benchCandidates(b, base, benchWorkloadBatch, benchWorkloadLACs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.BeginGeneration()
		if _, err := eval.EvaluateBatch(cands); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLACSearchPaper runs DCGWO's searching action — clone, simulate,
// time, pick the most similar switch for one of four Tc targets, apply —
// on a population slice of Cavlc LAC candidates at the paper preset's
// sample size. The switch-selection memo lives across iterations, as it
// lives across a run; every iteration replays the same random draws.
func BenchmarkLACSearchPaper(b *testing.B) {
	base := benchBase(b, benchSearchCircuit)
	lib := als.NewLibrary()
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchPaperVectors)
	s, err := sim.NewSimulator(base, v, nil)
	if err != nil {
		b.Fatal(err)
	}
	memo := lac.NewMemo(s.Golden())
	cands := benchCandidates(b, base, benchWorkloadBatch, benchWorkloadLACs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(benchWorkloadSeed))
		for _, cand := range cands {
			clone := cand.Clone()
			res, err := s.Simulate(clone)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := sta.Analyze(clone, lib)
			if err != nil {
				b.Fatal(err)
			}
			if _, ok := memo.SearchN(clone, res, s.SignalDiffers, rep, rng, 0.1, 4); !ok {
				memo.RandomChange(clone, res, s.SignalDiffers, rng)
			}
		}
	}
}

// BenchmarkEvaluateBatchShared measures one generation's worth of
// redundant candidates with the cache cold at the start of every
// iteration (BeginGeneration), so the number reflects steady-state
// per-generation reuse — duplicate candidates hitting the whole-candidate
// memo and disjoint-cone candidates composing cached per-change deltas —
// rather than cross-iteration accumulation.
func BenchmarkEvaluateBatchShared(b *testing.B) {
	base := benchBase(b, benchWorkloadCircuit)
	v := sim.Random(rand.New(rand.NewSource(benchWorkloadSeed)), len(base.PIs), benchWorkloadVectors)
	eval, err := core.NewEvaluator(base, als.NewLibrary(), core.MetricNMED, 0.8, v)
	if err != nil {
		b.Fatal(err)
	}
	cands := benchSharedCandidates(b, base, benchWorkloadBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.BeginGeneration()
		if _, err := eval.EvaluateBatch(cands); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := eval.CacheStats(); st.Hits == 0 || st.Composed == 0 {
		b.Fatalf("shared batch exercised no reuse: %+v", st)
	}
}

// BenchmarkPostOptimize sizes one candidate with the area budget a flow at
// AreaConRatio 1.0 gives it: the accurate circuit's area.
func BenchmarkPostOptimize(b *testing.B) {
	base := benchBase(b, benchWorkloadCircuit)
	lib := als.NewLibrary()
	cand := benchCandidates(b, base, 1, benchWorkloadLACs)[0]
	opts := sizing.Options{AreaCon: base.Area(lib)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sizing.PostOptimize(cand, lib, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCandidateClone times candidate construction, what every
// searching action, reproduction scaffold and greedy baseline step pays
// before simulation: Clone the wide-output workload circuit and replay
// benchWorkloadLACs rewires drawn outside the timer. With flat netlist
// storage its allocs/op is a small constant, whatever the gate count.
func BenchmarkCandidateClone(b *testing.B) {
	base := benchBase(b, benchWideCircuit)
	changes := benchChanges(base, benchWorkloadLACs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := base.Clone()
		for _, ch := range changes {
			lac.Apply(c, ch)
		}
	}
}
