package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// smallConfig keeps end-to-end optimizer tests fast.
func smallConfig(m Metric, budget float64) Config {
	cfg := DefaultConfig(m, budget)
	cfg.PopulationSize = 8
	cfg.MaxIter = 6
	cfg.Vectors = 1024
	cfg.Seed = 7
	return cfg
}

func TestOptimizerRunNMED(t *testing.T) {
	acc := adder8()
	opt, err := New(acc, lib, smallConfig(MetricNMED, 0.0244))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no feasible individual found")
	}
	if res.Best.Err > 0.0244 {
		t.Errorf("best error %v exceeds budget", res.Best.Err)
	}
	// The accurate circuit (Fit = 1) is always in the initial population,
	// so the best must be at least as fit.
	if res.Best.Fit < 1.0-1e-9 {
		t.Errorf("best fitness %v below the accurate circuit's 1.0", res.Best.Fit)
	}
	if err := res.Best.Circuit.Validate(); err != nil {
		t.Errorf("best circuit invalid: %v", err)
	}
	if len(res.History) != 6 {
		t.Errorf("history has %d entries, want 6", len(res.History))
	}
	if res.Evaluations == 0 {
		t.Error("no evaluations recorded")
	}
}

func TestOptimizerRunERReducesDelayOrArea(t *testing.T) {
	acc := adder8()
	opt, err := New(acc, lib, smallConfig(MetricER, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best
	if best.Fit <= 1.0 {
		t.Skip("no improving approximation found at this budget/seed")
	}
	if best.Delay >= opt.RefDelay() && best.Area >= opt.RefArea() {
		t.Error("fitness above 1 requires delay or area improvement")
	}
}

func TestOptimizerDeterministicAcrossRuns(t *testing.T) {
	run := func() float64 {
		opt, err := New(adder8(), lib, smallConfig(MetricNMED, 0.0244))
		if err != nil {
			t.Fatal(err)
		}
		res, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Fit
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different results: %v vs %v", a, b)
	}
}

func TestOptimizerHistoryMonotone(t *testing.T) {
	opt, err := New(adder8(), lib, smallConfig(MetricNMED, 0.0244))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, h := range res.History {
		if h.BestFit < prev {
			t.Error("tracked best fitness must be non-decreasing")
		}
		prev = h.BestFit
		if h.BestErr > 0.0244+1e-12 {
			t.Error("tracked best must always respect the final budget")
		}
	}
	// Error relaxation must reach the budget by Imax.
	last := res.History[len(res.History)-1]
	if last.ErrAllowed < 0.0244-1e-12 {
		t.Errorf("final relaxed constraint %v never reached the budget", last.ErrAllowed)
	}
	if res.History[0].ErrAllowed >= last.ErrAllowed {
		t.Error("the relaxed constraint must grow across iterations")
	}
}

func TestOptimizerTightBudgetStaysExact(t *testing.T) {
	// With a zero budget only the exact circuit is feasible.
	opt, err := New(adder8(), lib, smallConfig(MetricER, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Err != 0 {
		t.Errorf("zero budget but best error = %v", res.Best.Err)
	}
}

// ---- reproduction --------------------------------------------------------

func evalFor(t *testing.T, o *Optimizer, c *netlist.Circuit) *Individual {
	t.Helper()
	ind, err := o.eval.Evaluate(c)
	if err != nil {
		t.Fatal(err)
	}
	return ind
}

func TestReproduceMergesParents(t *testing.T) {
	acc := adder8()
	opt, err := New(acc, lib, smallConfig(MetricER, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	p1 := evalFor(t, opt, opt.base.Clone())

	// Parent 2: LAC somewhere in the carry chain.
	c2 := opt.base.Clone()
	res, err := sim.Run(c2, opt.eval.est.Vectors())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	if _, ok := lac.RandomChange(c2, res, rng); !ok {
		t.Fatal("no LAC applied")
	}
	p2 := evalFor(t, opt, c2)

	child := reproduce(p1, p2, opt.wt, opt.cfg.WeightErr)
	if child == nil {
		t.Fatal("reproduce returned nil on two valid parents")
	}
	if err := child.Validate(); err != nil {
		t.Fatalf("child invalid: %v", err)
	}
	if len(child.Gates) != len(p1.Circuit.Gates) {
		t.Error("child must share the parents' gate ID space")
	}
}

func TestReproduceRejectsMismatchedParents(t *testing.T) {
	acc := adder8()
	opt, err := New(acc, lib, smallConfig(MetricER, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	p1 := evalFor(t, opt, opt.base.Clone())
	// A parent with a different gate count cannot merge.
	other := opt.base.Clone()
	other.AddGate(cell.Inv, other.PIs[0])
	p2 := evalFor(t, opt, other)
	if reproduce(p1, p2, opt.wt, opt.cfg.WeightErr) != nil {
		t.Error("reproduce must reject parents with different ID spaces")
	}
}

func TestReproduceIdenticalParentsIsIdentity(t *testing.T) {
	acc := adder8()
	opt, err := New(acc, lib, smallConfig(MetricER, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	p := evalFor(t, opt, opt.base.Clone())
	child := reproduce(p, p, opt.wt, opt.cfg.WeightErr)
	if child == nil {
		t.Fatal("identical parents must merge")
	}
	for id := range child.Gates {
		got, want := child.Gates[id], p.Circuit.Gates[id]
		if got.Func != want.Func || len(got.Fanin) != len(want.Fanin) {
			t.Fatal("identity merge changed structure")
		}
		for pin := range got.Fanin {
			if got.Fanin[pin] != want.Fanin[pin] {
				t.Fatal("identity merge changed adjacency")
			}
		}
	}
}

func TestBestFeasible(t *testing.T) {
	pop := []*Individual{
		{Fit: 2.0, Err: 0.5},
		{Fit: 1.5, Err: 0.01},
		{Fit: 1.2, Err: 0.0},
	}
	if got := bestFeasible(pop, 0.05); got != pop[1] {
		t.Error("bestFeasible must pick the fittest within budget")
	}
	if got := bestFeasible(pop, 1.0); got != pop[0] {
		t.Error("loose budget admits the fittest overall")
	}
	if got := bestFeasible(pop[:1], 0.1); got != nil {
		t.Error("no feasible individual must yield nil")
	}
}

func TestSuperiorPicksStrictlyBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pop := []*Individual{{Fit: 3}, {Fit: 2}, {Fit: 1}}
	for i := 0; i < 20; i++ {
		s := superior(pop, pop[2], rng)
		if s.Fit <= pop[2].Fit {
			t.Fatal("superior must return a strictly fitter individual")
		}
	}
	if superior(pop, pop[0], rng) != pop[0] {
		t.Error("the leader falls back to itself")
	}
}

// TestConcurrentOptimizersMatchSerial runs two DCGWO optimizations on
// different circuits at once — each owns its switch-selection memo — and
// requires each to reproduce its serial run exactly. The concurrent runs
// go first, while every memo is empty: a memo shared between runs would
// then be filled from both goroutines, which -race reports.
func TestConcurrentOptimizersMatchSerial(t *testing.T) {
	runs := []struct {
		circuit string
		cfg     Config
	}{
		{"c880", smallConfig(MetricER, 0.05)},
		{"Max16", smallConfig(MetricNMED, 0.0244)},
	}
	run := func(i int) (string, error) {
		opt, err := New(gen.MustBuild(runs[i].circuit), lib, runs[i].cfg)
		if err != nil {
			return "", err
		}
		res, err := opt.Run()
		if err != nil {
			return "", err
		}
		b := res.Best
		fp := fmt.Sprintf("fit %x delay %x area %x err %x evals %d front %d",
			math.Float64bits(b.Fit), math.Float64bits(b.Delay), math.Float64bits(b.Area),
			math.Float64bits(b.Err), res.Evaluations, len(res.Front))
		for _, h := range res.History {
			fp += fmt.Sprintf(" %x", math.Float64bits(h.BestFit))
		}
		return fp, nil
	}
	concurrent := make([]string, len(runs))
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		serial, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		if concurrent[i] != serial {
			t.Errorf("%s: concurrent run %s, serial run %s", runs[i].circuit, concurrent[i], serial)
		}
	}
}
