package baselines

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
)

var lib = cell.Default28nm()

// adder8 mirrors the core test workload.
func adder8() *netlist.Circuit {
	c := netlist.New("adder8")
	a := make([]int, 8)
	b := make([]int, 8)
	for i := range a {
		a[i] = c.AddInput("a")
	}
	for i := range b {
		b[i] = c.AddInput("b")
	}
	carry := -1
	for i := 0; i < 8; i++ {
		var sum int
		if carry < 0 {
			sum = c.AddGate(cell.Xor2, a[i], b[i])
			carry = c.AddGate(cell.And2, a[i], b[i])
		} else {
			x := c.AddGate(cell.Xor2, a[i], b[i])
			sum = c.AddGate(cell.Xor2, x, carry)
			carry = c.AddGate(cell.Maj3, a[i], b[i], carry)
		}
		c.AddOutput("s", sum)
	}
	c.AddOutput("cout", carry)
	return c
}

func smallConfig(m core.Metric, budget float64) core.Config {
	cfg := core.DefaultConfig(m, budget)
	cfg.MaxIter = 5
	cfg.PopulationSize = 8
	cfg.Vectors = 1024
	cfg.Seed = 5
	return cfg
}

func TestMethodNames(t *testing.T) {
	want := map[Method]string{
		VecbeeSasimi:   "VECBEE-S",
		VaACS:          "VaACS",
		HEDALS:         "HEDALS",
		SingleChaseGWO: "GWO (single-chase)",
	}
	for m, name := range want {
		if m.String() != name {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), name)
		}
	}
	if len(Methods()) != 4 {
		t.Error("Methods() must list all four baselines")
	}
}

func TestAllBaselinesRespectBudget(t *testing.T) {
	for _, m := range Methods() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(m, adder8(), lib, smallConfig(core.MetricNMED, 0.0244))
			if err != nil {
				t.Fatal(err)
			}
			if res.Best == nil {
				t.Fatal("no result")
			}
			if res.Best.Err > 0.0244 {
				t.Errorf("error %v exceeds budget", res.Best.Err)
			}
			if err := res.Best.Circuit.Validate(); err != nil {
				t.Errorf("best circuit invalid: %v", err)
			}
			if res.Evaluations == 0 {
				t.Error("no evaluations recorded")
			}
		})
	}
}

func TestGreedySasimiReducesArea(t *testing.T) {
	res, err := Run(VecbeeSasimi, adder8(), lib, smallConfig(core.MetricNMED, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	accurateArea := adder8().Area(lib)
	if res.Best.Area > accurateArea {
		t.Errorf("area-driven greedy grew the area: %v > %v", res.Best.Area, accurateArea)
	}
}

func TestHedalsTargetsDelay(t *testing.T) {
	cfg := smallConfig(core.MetricER, 0.05)
	res, err := Run(HEDALS, adder8(), lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// HEDALS must never return something slower than the exact circuit
	// (it only commits strict delay improvements).
	opt, err := core.New(adder8(), lib, core.DefaultConfig(core.MetricER, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Delay > opt.RefDelay()+1e-9 {
		t.Errorf("HEDALS result slower than accurate: %v > %v", res.Best.Delay, opt.RefDelay())
	}
}

func TestZeroBudgetKeepsExact(t *testing.T) {
	for _, m := range Methods() {
		res, err := Run(m, adder8(), lib, smallConfig(core.MetricER, 0))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Best.Err != 0 {
			t.Errorf("%v: zero budget but error %v", m, res.Best.Err)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	for _, m := range Methods() {
		a, err := Run(m, adder8(), lib, smallConfig(core.MetricNMED, 0.0244))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(m, adder8(), lib, smallConfig(core.MetricNMED, 0.0244))
		if err != nil {
			t.Fatal(err)
		}
		if a.Best.Fit != b.Best.Fit {
			t.Errorf("%v: same seed, different fitness (%v vs %v)", m, a.Best.Fit, b.Best.Fit)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Run(Method(99), adder8(), lib, smallConfig(core.MetricER, 0.05)); err == nil {
		t.Error("unknown method must error")
	}
	if Method(99).String() == "" {
		t.Error("unknown method must still stringify")
	}
}

// fingerprint renders what a run must reproduce exactly: Best and every
// Front member (fitness, delay, area and error by bits, and Best's
// gates), Evaluations and Cache.
func fingerprint(res *core.Result) string {
	var b strings.Builder
	ind := func(x *core.Individual) {
		fmt.Fprintf(&b, "fit %x delay %x area %x err %x\n", math.Float64bits(x.Fit),
			math.Float64bits(x.Delay), math.Float64bits(x.Area), math.Float64bits(x.Err))
	}
	ind(res.Best)
	for _, g := range res.Best.Circuit.Gates {
		fmt.Fprintf(&b, " %d/%d%v", g.Func, g.Drive, g.Fanin)
	}
	b.WriteString("\nfront\n")
	for _, x := range res.Front {
		ind(x)
	}
	fmt.Fprintf(&b, "evaluations %d cache %+v", res.Evaluations, res.Cache)
	return b.String()
}

// TestBaselinesMatchAcrossWorkers runs every baseline with 1, 2 and 4
// evaluation workers — no worker goroutine, then one and three beside
// the optimizer goroutine, which draws while they complete VaACS's
// mutants, GWO's searches and the greedy rounds' edits — on c880 under
// ER and Max16 under NMED at the quick preset. Every run must match the
// one-worker run exactly. Run it under -race with -cpu 1,2,4.
func TestBaselinesMatchAcrossWorkers(t *testing.T) {
	for _, w := range []struct {
		circuit string
		metric  core.Metric
		budget  float64
		seed    int64
	}{
		{"c880", core.MetricER, 0.05, 1},
		{"Max16", core.MetricNMED, 0.0244, 2},
	} {
		for _, m := range Methods() {
			var want string
			for _, workers := range []int{1, 2, 4} {
				cfg := core.DefaultConfig(w.metric, w.budget)
				cfg.PopulationSize, cfg.MaxIter, cfg.Vectors = 10, 8, 2048
				cfg.Seed, cfg.EvalWorkers = w.seed, workers
				res, err := Run(m, gen.MustBuild(w.circuit), lib, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got := fingerprint(res)
				if workers == 1 {
					want = got
				} else if got != want {
					t.Fatalf("%v on %s: %d workers differ from 1:\n%s\nwant\n%s", m, w.circuit, workers, got, want)
				}
			}
		}
	}
}
