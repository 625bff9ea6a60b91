package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/errest"
	"repro/internal/gen"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// growParent applies k random changes to c, every other one an inverted
// wire through a fresh inverter, so c grows beyond the accurate circuit's
// gate ID space the way a greedy run's current circuit does.
func growParent(c *netlist.Circuit, rng *rand.Rand, k int) {
	for i := 0; i < k; i++ {
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
		var sws []int
		for id, g := range c.Gates {
			if tfi[id] && id != target && g.Func != cell.OutPort && !g.Func.IsConst() {
				sws = append(sws, id)
			}
		}
		ch := lac.Change{Target: target, Switch: c.Const1(), Kind: lac.WireByConst}
		if len(sws) > 0 {
			ch = lac.Change{Target: target, Switch: sws[rng.Intn(len(sws))], Kind: lac.WireByWire}
			if i%2 == 0 {
				ch.Kind = lac.WireByInvWire
			}
		}
		lac.Apply(c, ch)
	}
}

// roundTargets draws a round's target list: random live physical gates,
// gates driving a PO port, a repeated target and a primary input (which
// has no change).
func roundTargets(c *netlist.Circuit, rng *rand.Rand, k int) []int {
	live := c.Live()
	var phys, poDrivers []int
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	for _, po := range c.POs {
		if d := c.Gates[po].Fanin[0]; !c.Gates[d].Func.IsPseudo() {
			poDrivers = append(poDrivers, d)
		}
	}
	var targets []int
	for i := 0; i < k && len(phys) > 0; i++ {
		targets = append(targets, phys[rng.Intn(len(phys))])
	}
	for i := 0; i < 2 && len(poDrivers) > 0; i++ {
		targets = append(targets, poDrivers[rng.Intn(len(poDrivers))])
	}
	if len(targets) > 0 {
		targets = append(targets, targets[rng.Intn(len(targets))])
	}
	return append(targets, c.PIs[rng.Intn(len(c.PIs))])
}

// referenceEdit is the plain path a round replaces: materialize
// parent.Clone() plus the change, simulate it from scratch, scan every PO
// with a plain estimator and time it with a full Analyze.
func referenceEdit(t testing.TB, e *Evaluator, ref *errest.Estimator, parent *netlist.Circuit, ch lac.Change) *Individual {
	t.Helper()
	c := parent.Clone()
	lac.Apply(c, ch)
	res, err := sim.Run(c, ref.Vectors())
	if err != nil {
		t.Fatal(err)
	}
	m, err := ref.MetricsFromResult(c, res)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sta.Analyze(c, e.lib)
	if err != nil {
		t.Fatal(err)
	}
	return e.finish(c, m, rep.CPD, rep.MaxDepth, rep.POArrival)
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameIndividual compares every evaluated field by bits.
func sameIndividual(t testing.TB, what string, got, want *Individual) {
	t.Helper()
	if !bitsEqual(got.Fit, want.Fit) || !bitsEqual(got.Delay, want.Delay) || got.Depth != want.Depth ||
		!bitsEqual(got.Area, want.Area) || !bitsEqual(got.Err, want.Err) {
		t.Fatalf("%s: got Fit %v Delay %v Depth %d Area %v Err %v, want %v %v %d %v %v", what,
			got.Fit, got.Delay, got.Depth, got.Area, got.Err, want.Fit, want.Delay, want.Depth, want.Area, want.Err)
	}
	if len(got.PerPO) != len(want.PerPO) || len(got.POArrival) != len(want.POArrival) {
		t.Fatalf("%s: %d PerPO, %d POArrival, want %d and %d", what, len(got.PerPO), len(got.POArrival), len(want.PerPO), len(want.POArrival))
	}
	for i := range want.PerPO {
		if !bitsEqual(got.PerPO[i], want.PerPO[i]) || !bitsEqual(got.POArrival[i], want.POArrival[i]) {
			t.Fatalf("%s: PO %d: PerPO %v POArrival %v, want %v %v", what, i, got.PerPO[i], got.POArrival[i], want.PerPO[i], want.POArrival[i])
		}
	}
}

// roundStats tallies what a run of checkRounds exercised.
type roundStats struct {
	kinds     [3]int // changes by lac.Kind
	poTargets int    // changes whose target drives a PO port
	grown     int    // rounds whose parent holds gates beyond the base
}

// checkRounds drives rounds greedy rounds on ev from parent: each round
// evaluates its targets through EvaluateRound, compares every candidate
// with referenceEdit of the change the round reports and with
// lac.BestSwitchInv's pick, checks the evaluation count, and then commits
// one change — an inverted wire when the round has one — so the next
// round rebases on a new, larger parent.
func checkRounds(t testing.TB, ev *Evaluator, ref *errest.Estimator, parent *netlist.Circuit, rng *rand.Rand, rounds, k int, st *roundStats) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		res, err := ev.Simulate(parent)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sta.Analyze(parent, ev.lib)
		if err != nil {
			t.Fatal(err)
		}
		targets := roundTargets(parent, rng, k)
		var want []lac.Change
		for _, target := range targets {
			if ch, ok := lac.BestSwitchInv(parent, res, rep, target); ok {
				want = append(want, ch)
			}
		}
		count, lookups := ev.Count(), ev.CacheStats().Lookups
		kids, changes, err := ev.EvaluateRound(parent, res, rep, targets)
		if err != nil {
			t.Fatal(err)
		}
		if len(kids) != len(want) || len(changes) != len(want) || ev.Count()-count != len(want) {
			t.Fatalf("round %d: %d Individuals, %d changes, %d evaluations; want %d each",
				round, len(kids), len(changes), ev.Count()-count, len(want))
		}
		if got := ev.CacheStats().Lookups; got != lookups {
			t.Fatalf("round %d: rebased evaluations made %d cache lookups", round, got-lookups)
		}
		if len(parent.Gates) > len(ev.base.Gates) {
			st.grown++
		}
		commit := -1
		for i, ch := range changes {
			what := fmt.Sprintf("%s round %d (%d gates) target %d %v switch %d", parent.Name, round, len(parent.Gates), ch.Target, ch.Kind, ch.Switch)
			if ch != want[i] {
				t.Fatalf("%s: change %+v, BestSwitchInv picks %+v", what, ch, want[i])
			}
			if kids[i].Circuit != nil {
				t.Fatalf("%s: a candidate came back with a circuit", what)
			}
			sameIndividual(t, what, kids[i], referenceEdit(t, ev, ref, parent, ch))
			st.kinds[ch.Kind]++
			for _, fo := range parent.Fanouts()[ch.Target] {
				if parent.Gates[fo].Func == cell.OutPort {
					st.poTargets++
					break
				}
			}
			if commit < 0 || ch.Kind == lac.WireByInvWire && changes[commit].Kind != lac.WireByInvWire {
				commit = i
			}
		}
		if commit < 0 {
			return
		}
		next := parent.Clone()
		lac.Apply(next, changes[commit])
		parent = next
	}
}

// TestEvaluateRoundMatchesReference is the rebased round's oracle: on
// parents grown by LAC chains with inverted wires, every candidate of
// several consecutive rounds — each round rebased on the last one's
// committed change — must equal full simulation, a full PO scan and a
// full Analyze of the materialized circuit, field by field and bit for
// bit, at 1, 2 and 4 workers. ER runs on c880 and c5315 (57 POs, ER-only
// at any width), NMED on Adder16, Max16, c6288, Max (128 POs: the full
// transposed scan) and exhaustive Adder4.
func TestEvaluateRoundMatchesReference(t *testing.T) {
	var st roundStats
	for _, tc := range []struct {
		circuit string
		metric  Metric
		n       int // 0: exhaustive
	}{
		{"c880", MetricER, 1000},
		{"c5315", MetricER, 2048},
		{"Adder16", MetricNMED, 1000},
		{"Max16", MetricNMED, 1000},
		{"c6288", MetricNMED, 2048},
		{"Max", MetricNMED, 1000},
		{"Adder4", MetricNMED, 0},
	} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.circuit, workers), func(t *testing.T) {
				var base *netlist.Circuit
				if tc.circuit == "Adder4" {
					base = gen.Adder(4)
				} else {
					base = gen.MustBuild(tc.circuit)
				}
				base.Const0()
				base.Const1()
				rng := rand.New(rand.NewSource(int64(len(tc.circuit))))
				var vectors *sim.Vectors
				if tc.n == 0 {
					var err error
					if vectors, err = sim.Exhaustive(len(base.PIs)); err != nil {
						t.Fatal(err)
					}
				} else {
					vectors = sim.Random(rng, len(base.PIs), tc.n)
				}
				ev, err := NewEvaluator(base, lib, tc.metric, 0.8, vectors)
				if err != nil {
					t.Fatal(err)
				}
				ev.SetMaxWorkers(workers)
				ref, err := errest.New(base, vectors)
				if err != nil {
					t.Fatal(err)
				}
				parent := base.Clone()
				growParent(parent, rng, 4)
				checkRounds(t, ev, ref, parent, rng, 3, 10, &st)
			})
		}
	}
	if st.kinds[lac.WireByWire] == 0 || st.kinds[lac.WireByConst] == 0 || st.kinds[lac.WireByInvWire] == 0 || st.poTargets == 0 || st.grown == 0 {
		t.Fatalf("the rounds missed a shape: %+v", st)
	}
}

// FuzzGreedyRound drives checkRounds with fuzzed shapes: a small
// generated circuit, a vector count from 64 to 4096 with a partial last
// word, a LAC chain with inverted wires that grows the first parent, and
// the rounds' target lists. The seed corpus is under
// testdata/fuzz/FuzzGreedyRound.
func FuzzGreedyRound(f *testing.F) {
	circuits := []string{"Adder16", "Max16", "c880", "Cavlc", "Int2float", "c1908"}
	f.Fuzz(func(t *testing.T, seed int64, circuit uint8, vectors uint16, chain uint8, targets uint8, nmed bool) {
		base := gen.MustBuild(circuits[int(circuit)%len(circuits)])
		base.Const0()
		base.Const1()
		rng := rand.New(rand.NewSource(seed))
		v := sim.Random(rng, len(base.PIs), 64+int(vectors)%4033)
		metric := MetricER
		if nmed {
			metric = MetricNMED
		}
		ev, err := NewEvaluator(base, lib, metric, 0.8, v)
		if err != nil {
			t.Fatal(err)
		}
		ev.SetMaxWorkers(1 + int(chain)%3)
		ref, err := errest.New(base, v)
		if err != nil {
			t.Fatal(err)
		}
		parent := base.Clone()
		growParent(parent, rng, int(chain)%12)
		checkRounds(t, ev, ref, parent, rng, 2, 1+int(targets)%16, &roundStats{})
	})
}

// TestEvaluateRoundConstantAfterConsumer covers the one change a round
// cannot evaluate against its parent: a constant switch that the parent's
// topological order puts after a consumer of the target. Here the parent
// ties a NAND's inputs to constant 1 and holds an inverted wire, so its
// order is recomputed with 1, the NAND and the NAND's consumer ahead of
// 0, and the NAND, always 0, is best replaced by 0. The candidate must
// still equal the reference, timed by a full STA and counted as a
// fallback.
func TestEvaluateRoundConstantAfterConsumer(t *testing.T) {
	base := netlist.New("const-after")
	a, b := base.AddInput("a"), base.AddInput("b")
	nand := base.AddGate(cell.Nand2, a, b)
	base.AddOutput("y", base.AddGate(cell.Inv, nand))
	and := base.AddGate(cell.And2, a, b)
	base.AddOutput("z", and)
	zero, one := base.Const0(), base.Const1()
	vectors := sim.Random(rand.New(rand.NewSource(1)), len(base.PIs), 64)
	ev, err := NewEvaluator(base, lib, MetricER, 0.8, vectors)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := errest.New(base, vectors)
	if err != nil {
		t.Fatal(err)
	}
	parent := base.Clone()
	parent.SetFanin(nand, 0, one)
	parent.SetFanin(nand, 1, one)
	lac.Apply(parent, lac.Change{Target: and, Switch: a, Kind: lac.WireByInvWire})
	res, err := ev.Simulate(parent)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sta.Analyze(parent, lib)
	if err != nil {
		t.Fatal(err)
	}
	kids, changes, err := ev.EvaluateRound(parent, res, rep, []int{nand})
	if err != nil {
		t.Fatal(err)
	}
	if want := (lac.Change{Target: nand, Switch: zero, Kind: lac.WireByConst, Similarity: 1}); len(changes) != 1 || changes[0] != want {
		t.Fatalf("changes %+v, want [%+v]", changes, want)
	}
	sameIndividual(t, "constant after consumer", kids[0], referenceEdit(t, ev, ref, parent, changes[0]))
	if st := ev.CacheStats(); st.Fallbacks != 1 || st.Lookups != 0 {
		t.Fatalf("cache stats %+v, want one fallback and no lookup", st)
	}
}
