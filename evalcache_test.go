// Exactness property tests for the generation-scoped evaluation cache:
// a cache-enabled Evaluator must return bit-identical Individuals to a
// cache-disabled one on the same candidates — every field, serial and
// parallel, across generations, on randomized and exhaustive vector sets,
// whatever mix of whole-candidate hits and incremental evaluations the
// candidates trigger.
package als_test

import (
	"fmt"
	"math/rand"
	"testing"

	als "repro"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// evalPair builds two Evaluators on the same base circuit and vector
// sample, one with the cache on (the default) and one with it off (the
// pre-reuse evaluation path).
func evalPair(t *testing.T, base *netlist.Circuit, metric core.Metric, v *sim.Vectors) (cached, plain *core.Evaluator) {
	t.Helper()
	lib := als.NewLibrary()
	cached, err := core.NewEvaluator(base, lib, metric, 0.8, v)
	if err != nil {
		t.Fatal(err)
	}
	plain, err = core.NewEvaluator(base, lib, metric, 0.8, v)
	if err != nil {
		t.Fatal(err)
	}
	plain.SetCacheEnabled(false)
	return cached, plain
}

func constBase(t *testing.T, c *netlist.Circuit) *netlist.Circuit {
	t.Helper()
	base := c.Clone()
	base.Const0()
	base.Const1()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	return base
}

// requireIdentical asserts two Individuals of the same candidate agree
// bit-for-bit in every evaluated field.
func requireIdentical(t *testing.T, label string, got, want *core.Individual) {
	t.Helper()
	if got.Fit != want.Fit || got.Delay != want.Delay || got.Depth != want.Depth ||
		got.Area != want.Area || got.Err != want.Err {
		t.Fatalf("%s: scalar mismatch\n got %+v\nwant %+v", label, got, want)
	}
	if len(got.PerPO) != len(want.PerPO) {
		t.Fatalf("%s: PerPO length %d != %d", label, len(got.PerPO), len(want.PerPO))
	}
	for i := range got.PerPO {
		if got.PerPO[i] != want.PerPO[i] {
			t.Fatalf("%s: PerPO[%d] %v != %v", label, i, got.PerPO[i], want.PerPO[i])
		}
	}
	if len(got.POArrival) != len(want.POArrival) {
		t.Fatalf("%s: POArrival length %d != %d", label, len(got.POArrival), len(want.POArrival))
	}
	for i := range got.POArrival {
		if got.POArrival[i] != want.POArrival[i] {
			t.Fatalf("%s: POArrival[%d] %v != %v", label, i, got.POArrival[i], want.POArrival[i])
		}
	}
}

// reusePopulation builds one generation's candidate slice with every
// candidate shape present: multi-LAC random candidates, exact duplicates
// of them (whole-candidate hits), disjoint PO-port rewire pairs, and
// resized candidates (drive changes, alone or on top of a LAC, which move
// timing and area but not simulation), shuffled deterministically.
func reusePopulation(base *netlist.Circuit, rng *rand.Rand, n int) []*netlist.Circuit {
	var out []*netlist.Circuit
	for len(out) < n {
		switch len(out) % 5 {
		case 0, 1:
			c := base.Clone()
			for k := 0; k < 1+rng.Intn(3); k++ {
				benchLAC(c, rng)
			}
			out = append(out, c)
		case 2:
			// Duplicate an earlier candidate's content on a fresh clone.
			out = append(out, out[rng.Intn(len(out))].Clone())
		case 3:
			c := base.Clone()
			k := rng.Intn(len(base.POs) / 2)
			poPortLAC(c, 2*k)
			poPortLAC(c, 2*k+1)
			out = append(out, c)
		default:
			c := base.Clone()
			if rng.Intn(2) == 0 {
				benchLAC(c, rng)
			}
			for resized := 0; resized < 3; {
				if g := &c.Gates[rng.Intn(len(c.Gates))]; !g.Func.IsPseudo() {
					g.Drive = cell.Drive(rng.Intn(int(cell.NumDrives)))
					resized++
				}
			}
			out = append(out, c)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestEvalCacheExactness drives several generations of reuse-heavy
// populations through cached and uncached Evaluators — serially and on a
// 4-worker pool — and requires bit-identical Individuals and evaluation
// counts throughout. The cached side times eligible candidates
// incrementally; the uncached side runs a full STA on each. Max has 128
// POs: its metrics take the wide-output scan.
func TestEvalCacheExactness(t *testing.T) {
	cases := []struct {
		circuit string
		metric  core.Metric
	}{
		{"c880", core.MetricER},
		{"Adder16", core.MetricNMED},
		{"Max", core.MetricNMED},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/%s/workers=%d", tc.circuit, tc.metric, workers), func(t *testing.T) {
				base := constBase(t, als.Benchmark(tc.circuit))
				rng := rand.New(rand.NewSource(7))
				v := sim.Random(rng, len(base.PIs), 1024)
				cached, plain := evalPair(t, base, tc.metric, v)
				cached.SetMaxWorkers(workers)
				plain.SetMaxWorkers(workers)
				for generation := 0; generation < 3; generation++ {
					cached.BeginGeneration()
					plain.BeginGeneration()
					pop := reusePopulation(base, rng, 12)
					got, err := cached.EvaluateBatch(pop)
					if err != nil {
						t.Fatal(err)
					}
					want, err := plain.EvaluateBatch(pop)
					if err != nil {
						t.Fatal(err)
					}
					for i := range pop {
						requireIdentical(t, fmt.Sprintf("gen %d candidate %d", generation, i), got[i], want[i])
					}
					// A second cached pass over the same generation must hit
					// and still agree.
					again, err := cached.EvaluateBatch(pop)
					if err != nil {
						t.Fatal(err)
					}
					for i := range pop {
						requireIdentical(t, fmt.Sprintf("gen %d candidate %d (replay)", generation, i), again[i], want[i])
					}
				}
				if cached.Count() != 2*plain.Count() {
					t.Fatalf("evaluation counts diverged: cached %d, plain %d (cached ran twice per generation)",
						cached.Count(), plain.Count())
				}
				st := cached.CacheStats()
				if st.Hits == 0 || st.Generations != 3 {
					t.Fatalf("population did not exercise every reuse shape: %+v", st)
				}
			})
		}
	}
}

// TestEvalCacheExactnessExhaustive repeats the comparison on Adder4 under
// every possible input vector, so cached error metrics are checked
// against ground truth with zero sampling noise.
func TestEvalCacheExactnessExhaustive(t *testing.T) {
	base := constBase(t, gen.Adder(4))
	v, err := sim.Exhaustive(len(base.PIs))
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []core.Metric{core.MetricER, core.MetricNMED} {
		t.Run(metric.String(), func(t *testing.T) {
			cached, plain := evalPair(t, base, metric, v)
			rng := rand.New(rand.NewSource(11))
			for generation := 0; generation < 2; generation++ {
				cached.BeginGeneration()
				plain.BeginGeneration()
				pop := reusePopulation(base, rng, 10)
				got, err := cached.EvaluateBatch(pop)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.EvaluateBatch(pop)
				if err != nil {
					t.Fatal(err)
				}
				for i := range pop {
					requireIdentical(t, fmt.Sprintf("gen %d candidate %d", generation, i), got[i], want[i])
				}
			}
		})
	}
}

// TestEvalCacheComposePath evaluates two Adder16 candidates made of
// disjoint PO-port rewires, sharing one of them: multi-change candidates
// whose changes touch independent output cones. Neither repeats a whole
// candidate, so both take the incremental path on a cache miss, and both
// must match the uncached evaluation exactly.
func TestEvalCacheComposePath(t *testing.T) {
	base := constBase(t, als.Benchmark("Adder16"))
	v := sim.Random(rand.New(rand.NewSource(3)), len(base.PIs), 2048)
	cached, plain := evalPair(t, base, core.MetricNMED, v)
	cached.BeginGeneration()

	// Two candidates sharing one PO-port rewire.
	a := base.Clone()
	poPortLAC(a, 0)
	poPortLAC(a, 3)
	b := base.Clone()
	poPortLAC(b, 0)
	poPortLAC(b, 5)
	for i, c := range []*netlist.Circuit{a, b} {
		got, err := cached.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plain.Evaluate(c)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("candidate %d", i), got, want)
	}
	st := cached.CacheStats()
	if st.Lookups != 2 || st.Hits != 0 || st.Fallbacks != 0 {
		t.Fatalf("expected two incremental cache misses, got %+v", st)
	}
	if r := st.HitRatio(); r < 0 || r > 1 {
		t.Fatalf("hit ratio %v outside [0,1]", r)
	}
}

// TestFlowCacheStats asserts a real DCGWO flow populates the cache
// counters and surfaces them through both FlowResult.Cache and the
// session's EventDone stats — without touching the frozen wire contracts
// (cmd/apicheck guards the exported surface separately).
func TestFlowCacheStats(t *testing.T) {
	sess, err := als.NewSession(gen.Adder(8), nil,
		als.WithMetric(als.MetricNMED), als.WithErrorBudget(0.02),
		als.WithPopulation(6), als.WithIterations(3), als.WithVectors(256))
	if err != nil {
		t.Fatal(err)
	}
	var stats *als.EvalCacheStats
	var result *als.FlowResult
	for ev, err := range sess.Run(t.Context()) {
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind == als.EventDone {
			stats, result = ev.Stats, ev.Result
		}
	}
	if stats == nil || result == nil {
		t.Fatal("run ended without EventDone")
	}
	if stats.Lookups == 0 {
		t.Fatalf("flow performed no cache lookups: %+v", *stats)
	}
	if stats.Generations == 0 {
		t.Fatalf("flow marked no generation boundaries: %+v", *stats)
	}
	if *stats != result.Cache {
		t.Fatalf("EventDone stats %+v differ from FlowResult.Cache %+v", *stats, result.Cache)
	}
	if got := result.Cache.HitRatio(); got < 0 || got > 1 {
		t.Fatalf("hit ratio %v outside [0,1]", got)
	}
}
