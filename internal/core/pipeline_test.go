package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// quickConfig is the als quick preset: N = 10, Imax = 8, 2048 vectors.
func quickConfig(m Metric, budget float64, seed int64) Config {
	cfg := DefaultConfig(m, budget)
	cfg.PopulationSize = 10
	cfg.MaxIter = 8
	cfg.Vectors = 2048
	cfg.Seed = seed
	return cfg
}

// fingerprint renders what a run must reproduce exactly: Best (fitness,
// delay, area and error by bits, and its gates), History without Cache,
// Front and Evaluations.
func fingerprint(res *Result) string {
	var b strings.Builder
	ind := func(x *Individual) {
		fmt.Fprintf(&b, "fit %x delay %x area %x err %x gates", math.Float64bits(x.Fit),
			math.Float64bits(x.Delay), math.Float64bits(x.Area), math.Float64bits(x.Err))
		for _, g := range x.Circuit.Gates {
			fmt.Fprintf(&b, " %d/%d%v", g.Func, g.Drive, g.Fanin)
		}
		b.WriteString("\n")
	}
	ind(res.Best)
	for _, h := range res.History {
		fmt.Fprintf(&b, "%d %x %x %x %x %x %d\n", h.Iter, math.Float64bits(h.BestFit), math.Float64bits(h.BestDelay),
			math.Float64bits(h.BestArea), math.Float64bits(h.BestErr), math.Float64bits(h.ErrAllowed), h.Evaluations)
	}
	for _, x := range res.Front {
		ind(x)
	}
	fmt.Fprintf(&b, "evaluations %d", res.Evaluations)
	return b.String()
}

// tieCircuit computes a AND b twice, slowly as NOT(NAND) at the lower
// gate ID and directly at the higher one, and ORs the two: a target whose
// two best switches tie, where the arrival tie-break and ID order
// disagree.
func tieCircuit() *netlist.Circuit {
	c := netlist.New("tie")
	a, b := c.AddInput("a"), c.AddInput("b")
	slow := c.AddGate(cell.Inv, c.AddGate(cell.Nand2, a, b))
	c.AddOutput("y", c.AddGate(cell.Or2, slow, c.AddGate(cell.And2, a, b)))
	return c
}

// TestSearchPlanMatchesSearch plans and completes chains of searching
// actions on c880, Max16 and Adder16, and single ones on tieCircuit, and
// compares each with the one-call search on a twin clone and a twin RNG:
// memo-less lac.SearchN, and lac.RandomChange when it finds no target. A
// margin of -1 empties Tc, so every search takes the fallback, which
// breaks no similarity ties. Circuits and the next draw must match.
func TestSearchPlanMatchesSearch(t *testing.T) {
	for _, tc := range []struct {
		circuit  *netlist.Circuit
		margin   float64
		searches int
		chain    bool
	}{
		{gen.MustBuild("c880"), 0.1, 12, true}, {gen.MustBuild("c880"), -1, 12, true},
		{gen.MustBuild("Max16"), 0.1, 12, true}, {gen.MustBuild("Max16"), -1, 12, true},
		{gen.MustBuild("Adder16"), 0.1, 12, true}, {gen.MustBuild("Adder16"), -1, 12, true},
		{tieCircuit(), 0.1, 40, false}, {tieCircuit(), -1, 40, false},
	} {
		margin := tc.margin
		cfg := quickConfig(MetricER, 0.05, 3)
		cfg.CritMargin = margin
		opt, err := New(tc.circuit, lib, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, changed := opt.base.Clone(), 0
		for k := 0; k < tc.searches; k++ {
			if !tc.chain {
				c = opt.base.Clone()
			}
			ind := &Individual{Circuit: c}
			opt.rng = rand.New(rand.NewSource(int64(k)))
			twinRNG := rand.New(rand.NewSource(int64(k)))
			got, plan, err := opt.searchClone(ind)
			if err != nil {
				t.Fatal(err)
			}
			if err := plan.complete(opt.eval.serial.sim, got); err != nil {
				t.Fatal(err)
			}
			want := c.Clone()
			res, err := opt.eval.Simulate(want)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sta.Analyze(want, lib)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := lac.SearchN(want, res, rep, twinRNG, margin, cfg.SearchTries); !ok {
				lac.RandomChange(want, res, twinRNG)
			}
			if len(got.DiffGates(c)) > 0 {
				changed++
			}
			for id, g := range want.Gates {
				if h := got.Gates[id]; h.Func != g.Func || !slices.Equal(h.Fanin, g.Fanin) {
					t.Fatalf("%s margin %v, search %d: gate %d is %+v, want %+v", tc.circuit.Name, margin, k, id, h, g)
				}
			}
			if a, b := opt.rng.Int63(), twinRNG.Int63(); a != b {
				t.Fatalf("%s margin %v, search %d: next draws %d, %d", tc.circuit.Name, margin, k, a, b)
			}
			c = got
		}
		if changed == 0 {
			t.Fatalf("%s margin %v: no search changed the circuit", tc.circuit.Name, margin)
		}
	}
}

// TestPipelineMatchesAcrossWorkers runs DCGWO with 1, 2 and 4 evaluation
// workers — no worker goroutine, then one and three beside the optimizer
// goroutine — on c880, Max16, Adder16 and Cavlc at the quick preset,
// seeds 1-3, plus a run without reproduction and a short one at the
// paper's 131072 vectors. Every run must match the one-worker run
// exactly. Run it under -race with -cpu 1,2,4.
func TestPipelineMatchesAcrossWorkers(t *testing.T) {
	type run struct {
		circuit string
		cfg     Config
	}
	var runs []run
	for seed := int64(1); seed <= 3; seed++ {
		runs = append(runs,
			run{"c880", quickConfig(MetricER, 0.05, seed)},
			run{"Max16", quickConfig(MetricNMED, 0.0244, seed)},
			run{"Adder16", quickConfig(MetricNMED, 0.0244, seed)},
			run{"Cavlc", quickConfig(MetricER, 0.05, seed)})
	}
	noRepro := quickConfig(MetricER, 0.05, 4)
	noRepro.DisableReproduction = true
	paper := quickConfig(MetricER, 0.05, 5)
	paper.PopulationSize, paper.MaxIter, paper.Vectors = 6, 2, 1<<17
	runs = append(runs, run{"c880", noRepro}, run{"c880", paper})

	for _, r := range runs {
		var want string
		for _, workers := range []int{1, 2, 4} {
			cfg := r.cfg
			cfg.EvalWorkers = workers
			opt, err := New(gen.MustBuild(r.circuit), lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := fingerprint(res)
			if workers == 1 {
				want = got
			} else if got != want {
				t.Fatalf("%s seed %d noRepro %v vectors %d: %d workers differ from 1:\n%s\nwant\n%s",
					r.circuit, cfg.Seed, cfg.DisableReproduction, cfg.Vectors, workers, got, want)
			}
		}
	}
}

// TestPipelineFailureStopsWorkers makes completions fail: each new best
// individual lists its first primary input twice, so simulating a clone
// of it fails (the sample has one input fewer) while its gate ID space,
// which circuit reproduction merges on, stays the base's. An infinite Sω
// rules out the ω "both actions" case, so the failing search is a queued
// one, not an inline one. RunContext must return that error, and
// afterwards no pipeline goroutine may run and every arena must be back
// in the pool. A best individual that leaves the base's ID space (an
// extra gate) must instead stop the run with reproduction's error, and an
// EvaluateBatch with a bad candidate must stop the pool the same way.
func TestPipelineFailureStopsWorkers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, c := range []struct {
			name, want string
			mutate     func(*netlist.Circuit)
		}{
			{"duplicate PI", "PIs", func(c *netlist.Circuit) { c.PIs = append(c.PIs, c.PIs[0]) }},
			{"extra gate", "circuit reproduction", func(c *netlist.Circuit) { c.AddInput("extra") }},
		} {
			before := runtime.NumGoroutine()
			cfg := smallConfig(MetricER, 0.05)
			cfg.EvalWorkers = workers
			cfg.OmegaThreshold = math.Inf(1)
			cfg.OnImproved = func(ind *Individual) { c.mutate(ind.Circuit) }
			opt, err := New(adder8(), lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := opt.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%d workers, %s: run error %v, want one naming %q", workers, c.name, err, c.want)
			}
			assertStopped(t, opt.eval, workers, before)

			bad := opt.base.Clone()
			bad.AddGate(cell.Inv, bad.AddInput("extra"))
			cands := []*netlist.Circuit{opt.base.Clone(), opt.base.Clone(), bad, opt.base.Clone()}
			if _, err := opt.eval.EvaluateBatch(cands); err == nil {
				t.Fatalf("%d workers: batch with a bad candidate succeeded", workers)
			}
			assertStopped(t, opt.eval, workers, before)
		}
	}
}

// assertStopped checks that the Evaluator's pool holds all its arenas
// and that the goroutine count is back to what it was before the run.
func assertStopped(t *testing.T, e *Evaluator, arenas, goroutines int) {
	t.Helper()
	if len(e.pool) != arenas {
		t.Fatalf("pool holds %d arenas, want %d", len(e.pool), arenas)
	}
	// A worker's last act is wg.Done; give it a moment to exit.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(time.Millisecond)
	}
}
