// Shared benchmark workload: every committed engine bench (perf_bench_test.go)
// and the end-to-end flow bench (bench_test.go) derive their shape from the
// constants and helpers here, so `cmd/benchgate`'s committed baselines and
// the benches provably measure the same workload — the constants cannot
// drift apart silently because there is exactly one copy.
package als_test

import (
	"math/rand"
	"testing"

	als "repro"
	"repro/internal/lac"
	"repro/internal/netlist"
)

// The committed bench family's workload shape. testdata/bench_baseline.json
// records numbers measured at exactly this shape; change these only
// together with a baseline regeneration (`cmd/benchgate -update`).
const (
	// benchWorkloadCircuit is the TABLE I design every bench mutates,
	// except the wide-output one.
	benchWorkloadCircuit = "Adder16"
	// benchWideCircuit is BenchmarkEvaluateBatchWide's design: the 128-bit
	// adder, whose 129 POs take the error estimator's wide-output scan.
	// BenchmarkCandidateClone builds candidates of it too: at 2948 gates,
	// a per-gate cost of Clone shows plainly in allocs/op.
	benchWideCircuit = "Adder"
	// benchPaperCircuit and benchSearchCircuit are the paper-preset
	// benches' designs: BenchmarkEvaluateBatchPaper evaluates Max16
	// candidates (an NMED circuit), BenchmarkLACSearchPaper searches Cavlc
	// candidates and BenchmarkEvaluateBatchPaperER evaluates them under
	// the ER constraint, the paper's TABLE II metric for Cavlc.
	benchPaperCircuit  = "Max16"
	benchSearchCircuit = "Cavlc"
	// benchWorkloadVectors is the Monte-Carlo sample size.
	benchWorkloadVectors = 2048
	// benchPaperVectors is the paper preset's sample size.
	benchPaperVectors = 1 << 17
	// benchWorkloadLACs is how many LACs each candidate accumulates (and
	// BenchmarkCandidateClone applies per op).
	benchWorkloadLACs = 2
	// benchWorkloadBatch is the EvaluateBatch population slice size.
	benchWorkloadBatch = 16
	// benchWorkloadSeed fixes every stochastic choice.
	benchWorkloadSeed = 1
	// benchWorkloadNMED is BenchmarkFlowSingle's and BenchmarkFlowGreedy's
	// error budget (the paper's TABLE III constraint).
	benchWorkloadNMED = 0.0244
	// benchWorkloadPop and benchWorkloadIters are BenchmarkFlowSingle's
	// quick optimizer budget.
	benchWorkloadPop   = 8
	benchWorkloadIters = 6
	// benchFlowPaperCircuit and benchFlowPaperER are BenchmarkFlowPaper's
	// cell: c880 under the paper's TABLE II constraint (ER 5%), the
	// end-to-end benchmark's warm-up flow.
	benchFlowPaperCircuit = "c880"
	benchFlowPaperER      = 0.05
)

// benchBase returns the constant-materialized workload circuit every
// candidate derives from.
func benchBase(b *testing.B, name string) *netlist.Circuit {
	b.Helper()
	base := als.Benchmark(name).Clone()
	base.Const0()
	base.Const1()
	if err := base.Validate(); err != nil {
		b.Fatal(err)
	}
	return base
}

// benchLAC applies one loop-safe rewire drawn by benchDrawLAC.
func benchLAC(c *netlist.Circuit, rng *rand.Rand) { lac.Apply(c, benchDrawLAC(c, rng)) }

// benchDrawLAC draws one loop-safe rewire: a random live physical gate's
// consumers switch to a random TFI gate or, when it has none, constant 0.
func benchDrawLAC(c *netlist.Circuit, rng *rand.Rand) lac.Change {
	live := c.Live()
	var phys []int
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	target := phys[rng.Intn(len(phys))]
	tfi := c.TFI(target)
	var cands []int
	for id := range c.Gates {
		if tfi[id] && id != target && !c.Gates[id].Func.IsPseudo() {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 {
		return lac.Change{Target: target, Switch: c.Const0(), Kind: lac.WireByConst}
	}
	return lac.Change{Target: target, Switch: cands[rng.Intn(len(cands))], Kind: lac.WireByWire}
}

// benchChanges draws `lacs` rewires from a fixed seed, each on the clone
// of base the earlier ones produced, so replaying them in order on any
// clone of base is loop-safe and deterministic.
func benchChanges(base *netlist.Circuit, lacs int) []lac.Change {
	rng := rand.New(rand.NewSource(benchWorkloadSeed))
	c := base.Clone()
	out := make([]lac.Change, lacs)
	for k := range out {
		out[k] = benchDrawLAC(c, rng)
		lac.Apply(c, out[k])
	}
	return out
}

// benchCandidates builds n independent candidates, each base mutated by
// `lacs` random rewires, from a fixed seed.
func benchCandidates(b *testing.B, base *netlist.Circuit, n, lacs int) []*netlist.Circuit {
	b.Helper()
	rng := rand.New(rand.NewSource(benchWorkloadSeed))
	out := make([]*netlist.Circuit, n)
	for i := range out {
		c := base.Clone()
		for k := 0; k < lacs; k++ {
			benchLAC(c, rng)
		}
		out[i] = c
	}
	return out
}

// poPortLAC rewires PO port k to read PI (k mod nPI) directly: the only
// gate that differs from base is the PO port itself, whose fanout cone is
// empty, so two such changes on distinct POs have provably disjoint cones.
func poPortLAC(c *netlist.Circuit, k int) {
	po := c.POs[k]
	c.SetFanin(po, 0, c.PIs[k%len(c.PIs)])
}

// benchSharedCandidates builds a population slice with the redundancy a
// real generation exhibits: `n` candidates cycling through n/4 distinct
// change sets (whole-candidate reuse) where each distinct candidate
// carries two PO-port rewires on a disjoint PO pair. Every duplicate is a
// separate Clone — distinct circuits
// with equal content, exactly what elitism and converged populations
// produce.
func benchSharedCandidates(b *testing.B, base *netlist.Circuit, n int) []*netlist.Circuit {
	b.Helper()
	distinct := n / 4
	if distinct < 1 {
		distinct = 1
	}
	out := make([]*netlist.Circuit, n)
	for i := range out {
		c := base.Clone()
		v := i % distinct
		poPortLAC(c, 2*v)
		poPortLAC(c, 2*v+1)
		out[i] = c
	}
	return out
}
