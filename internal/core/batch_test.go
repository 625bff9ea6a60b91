package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/errest"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// lacMutate applies one loop-safe random rewire (TFI or constant switch).
func lacMutate(c *netlist.Circuit, rng *rand.Rand) {
	live := c.Live()
	var phys []int
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	if len(phys) == 0 {
		return
	}
	target := phys[rng.Intn(len(phys))]
	tfi := c.TFI(target)
	var cands []int
	for id := range c.Gates {
		if tfi[id] && id != target && !c.Gates[id].Func.IsPseudo() {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 || rng.Intn(5) == 0 {
		c.ReplaceFanin(target, c.Const1())
		return
	}
	c.ReplaceFanin(target, cands[rng.Intn(len(cands))])
}

func individualsEqual(t *testing.T, what string, a, b *Individual) {
	t.Helper()
	if a.Fit != b.Fit || a.Delay != b.Delay || a.Depth != b.Depth ||
		a.Area != b.Area || a.Err != b.Err {
		t.Fatalf("%s: individuals differ:\n  %+v\n  %+v", what, a, b)
	}
	if len(a.PerPO) != len(b.PerPO) {
		t.Fatalf("%s: PerPO lengths differ", what)
	}
	for i := range a.PerPO {
		if a.PerPO[i] != b.PerPO[i] {
			t.Fatalf("%s: PerPO[%d] %v != %v", what, i, a.PerPO[i], b.PerPO[i])
		}
	}
	for i := range a.POArrival {
		if a.POArrival[i] != b.POArrival[i] {
			t.Fatalf("%s: POArrival[%d] %v != %v", what, i, a.POArrival[i], b.POArrival[i])
		}
	}
}

// TestEvaluateBatchMatchesSerial asserts that EvaluateBatch returns
// bit-identical Individuals, in input order, to one-at-a-time Evaluate on
// a fresh Evaluator, and that the evaluation count advances identically.
// The vector count is odd-sized to cover the tail mask in the batch path.
func TestEvaluateBatchMatchesSerial(t *testing.T) {
	base := adder8().Clone()
	base.Const0()
	base.Const1()
	rng := rand.New(rand.NewSource(9))
	vectors := sim.Random(rng, len(base.PIs), 1000)

	evBatch, err := NewEvaluator(base, lib, MetricNMED, 0.8, vectors)
	if err != nil {
		t.Fatal(err)
	}
	evSerial, err := NewEvaluator(base, lib, MetricNMED, 0.8, vectors)
	if err != nil {
		t.Fatal(err)
	}

	var cands []*netlist.Circuit
	for i := 0; i < 17; i++ {
		c := base.Clone()
		for k := 0; k < i%4; k++ {
			lacMutate(c, rng)
		}
		cands = append(cands, c)
	}

	batch, err := evBatch.EvaluateBatch(cands)
	if err != nil {
		t.Fatal(err)
	}
	if evBatch.Count() != len(cands) {
		t.Fatalf("batch count = %d, want %d", evBatch.Count(), len(cands))
	}
	for i, c := range cands {
		want, err := evSerial.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		individualsEqual(t, "batch vs serial", batch[i], want)
	}
	if evSerial.Count() != evBatch.Count() {
		t.Fatalf("serial count %d != batch count %d", evSerial.Count(), evBatch.Count())
	}
}

// TestEvaluateBatchParallelWorkers forces the multi-worker pool (this
// machine may run with GOMAXPROCS=1, where EvaluateBatch degrades to the
// serial loop) and checks order, values and count are unaffected.
func TestEvaluateBatchParallelWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	base := adder8().Clone()
	base.Const0()
	base.Const1()
	rng := rand.New(rand.NewSource(21))
	vectors := sim.Random(rng, len(base.PIs), 512)
	evPar, err := NewEvaluator(base, lib, MetricER, 0.8, vectors)
	if err != nil {
		t.Fatal(err)
	}
	evSer, err := NewEvaluator(base, lib, MetricER, 0.8, vectors)
	if err != nil {
		t.Fatal(err)
	}
	var cands []*netlist.Circuit
	for i := 0; i < 23; i++ {
		c := base.Clone()
		for k := 0; k < i%5; k++ {
			lacMutate(c, rng)
		}
		cands = append(cands, c)
	}
	got, err := evPar.EvaluateBatch(cands)
	if err != nil {
		t.Fatal(err)
	}
	if evPar.Count() != len(cands) {
		t.Fatalf("count = %d, want %d", evPar.Count(), len(cands))
	}
	for i, c := range cands {
		want, err := evSer.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		individualsEqual(t, "parallel vs serial", got[i], want)
	}
	// Reuse the same pool a second time to cover simulator recycling.
	again, err := evPar.EvaluateBatch(cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		individualsEqual(t, "second batch", again[i], got[i])
	}
}

// TestEvaluateBatchGOMAXPROCSRaise is the regression test for the
// worker-pool sizing: an Evaluator built while GOMAXPROCS=1 must not
// deadlock (or mis-evaluate) when GOMAXPROCS is raised before the batch.
func TestEvaluateBatchGOMAXPROCSRaise(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	base := adder8().Clone()
	base.Const0()
	base.Const1()
	rng := rand.New(rand.NewSource(2))
	vectors := sim.Random(rng, len(base.PIs), 256)
	ev, err := NewEvaluator(base, lib, MetricER, 0.8, vectors)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	var cands []*netlist.Circuit
	for i := 0; i < 16; i++ {
		c := base.Clone()
		lacMutate(c, rng)
		cands = append(cands, c)
	}
	done := make(chan error, 1)
	go func() {
		_, err := ev.EvaluateBatch(cands)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("EvaluateBatch deadlocked after a GOMAXPROCS raise")
	}
	if ev.Count() != len(cands) {
		t.Fatalf("count = %d, want %d", ev.Count(), len(cands))
	}
}

// TestEvaluateMatchesFullResimulation pins the incremental evaluator to
// ground truth: metrics computed through the Simulator + MetricsDelta path
// must equal a from-scratch sim.Run + full-scan estimate by a plain
// Estimator (errest.New ignores the ER-only mode) for both ER and NMED
// metrics, with the evaluation cache on and off. Adder8 runs at 999
// vectors under both metrics. ER-only estimation runs on c880 and on
// c5315, whose 57 POs take the touched-PO scan only in ER-only mode, at
// 2048 and 131072 vectors.
func TestEvaluateMatchesFullResimulation(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		metric  Metric
		n       int
		trials  int
	}{
		{"Adder8", MetricER, 999, 25},
		{"Adder8", MetricNMED, 999, 25},
		{"c880", MetricER, 2048, 25},
		{"c880", MetricER, 1 << 17, 6},
		{"c5315", MetricER, 2048, 25},
		{"c5315", MetricER, 1 << 17, 6},
	} {
		for _, cache := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/%v/%d/cache=%v", tc.circuit, tc.metric, tc.n, cache), func(t *testing.T) {
				base := adder8().Clone()
				if tc.circuit != "Adder8" {
					base = gen.MustBuild(tc.circuit)
				}
				base.Const0()
				base.Const1()
				rng := rand.New(rand.NewSource(4))
				vectors := sim.Random(rng, len(base.PIs), tc.n)
				ev, err := NewEvaluator(base, lib, tc.metric, 0.8, vectors)
				if err != nil {
					t.Fatal(err)
				}
				ev.SetCacheEnabled(cache)
				ref, err := errest.New(base, vectors)
				if err != nil {
					t.Fatal(err)
				}
				for trial := 0; trial < tc.trials; trial++ {
					cand := base.Clone()
					for k := 0; k < rng.Intn(4)+1; k++ {
						lacMutate(cand, rng)
					}
					got, err := ev.Evaluate(cand)
					if err != nil {
						t.Fatal(err)
					}
					// Ground truth: full re-simulation and full scan.
					m, _, err := ref.Evaluate(cand)
					if err != nil {
						t.Fatal(err)
					}
					wantErr := m.ER
					if tc.metric == MetricNMED {
						wantErr = m.NMED
					}
					if got.Err != wantErr {
						t.Fatalf("trial %d: incremental Err %v != full %v", trial, got.Err, wantErr)
					}
					for i := range m.PerPO {
						if got.PerPO[i] != m.PerPO[i] {
							t.Fatalf("trial %d: PerPO[%d] %v != %v", trial, i, got.PerPO[i], m.PerPO[i])
						}
					}
				}
			})
		}
	}
}
