package sta_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

var lib = cell.Default28nm()

// fullTrialCPD is the oracle the re-timer replaces: the CPD of a full
// Analyze with gate id at drive d.
func fullTrialCPD(t testing.TB, c *netlist.Circuit, id int, d cell.Drive) float64 {
	t.Helper()
	g := &c.Gates[id]
	old := g.Drive
	g.Drive = d
	rep, err := sta.Analyze(c, lib)
	g.Drive = old
	if err != nil {
		t.Fatal(err)
	}
	return rep.CPD
}

func newRetimer(t testing.TB, c *netlist.Circuit) (*sta.Retimer, *sta.Report) {
	t.Helper()
	rep, err := sta.Analyze(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := sta.NewRetimer(c, lib, rep)
	if err != nil {
		t.Fatal(err)
	}
	return rt, rep
}

func checkTrial(t testing.TB, c *netlist.Circuit, rt *sta.Retimer, id int, d cell.Drive) {
	t.Helper()
	got, want := rt.TrialCPD(id, d), fullTrialCPD(t, c, id, d)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: gate %d (%v %v→%v): TrialCPD = %v (%#x), Analyze = %v (%#x)",
			c.Name, id, c.Gates[id].Func, c.Gates[id].Drive, d,
			got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// randomDAG builds a random netlist: a few PIs, physical gates of random
// function and drive reading earlier gates or constants, POs on random
// gates (some gates stay dangling, some drive several POs).
func randomDAG(rng *rand.Rand, gates int) *netlist.Circuit {
	c := netlist.New("random")
	srcs := []int{}
	for i := rng.Intn(5) + 1; i > 0; i-- {
		srcs = append(srcs, c.AddInput("i"))
	}
	if rng.Intn(2) == 0 {
		srcs = append(srcs, c.Const0(), c.Const1())
	}
	for k := 0; k < gates; k++ {
		f := cell.Buf + cell.Func(rng.Intn(int(cell.NumFuncs-cell.Buf)))
		fanin := make([]int, f.Arity())
		for pin := range fanin {
			// Favour recent gates so paths get deep.
			j := len(srcs) - 1 - rng.Intn(min(len(srcs), 8))
			if rng.Intn(4) == 0 {
				j = rng.Intn(len(srcs))
			}
			fanin[pin] = srcs[j]
		}
		id := c.AddGate(f, fanin...)
		c.Gates[id].Drive = cell.Drive(rng.Intn(int(cell.NumDrives)))
		srcs = append(srcs, id)
	}
	for i := rng.Intn(4) + 1; i > 0; i-- {
		c.AddOutput("o", srcs[len(srcs)-1-rng.Intn(min(len(srcs), 12))])
	}
	return c
}

// FuzzTrialCPD is the re-timer's differential oracle: on a random DAG with
// random drives, two successive trials (the second checks the first left
// no trace) must each match a full Analyze bit for bit. The seed corpus is
// under testdata/fuzz/FuzzTrialCPD.
func FuzzTrialCPD(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint8, pick uint16, step uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng, int(size)%96+1)
		rt, _ := newRetimer(t, c)
		checkTrial(t, c, rt, int(pick)%len(c.Gates), cell.Drive(step)%cell.NumDrives)
		checkTrial(t, c, rt, rng.Intn(len(c.Gates)), cell.Drive(rng.Intn(int(cell.NumDrives))))
	})
}

// approximated returns c880 with a few real LACs applied (leaving dangling
// gates and constant-fed consumers) and random drives.
func approximated(t testing.TB) *netlist.Circuit {
	t.Helper()
	c := gen.MustBuild("c880")
	c.Const0()
	c.Const1()
	rng := rand.New(rand.NewSource(3))
	v := sim.Random(rng, len(c.PIs), 256)
	for k := 0; k < 6; k++ {
		res, err := sim.Run(c, v)
		if err != nil {
			t.Fatal(err)
		}
		lac.RandomChange(c, res, rng)
	}
	for id := range c.Gates {
		if !c.Gates[id].Func.IsPseudo() {
			c.Gates[id].Drive = cell.Drive(rng.Intn(int(cell.NumDrives)))
		}
	}
	c.Name = "c880+lac"
	return c
}

// TestTrialCPDSweep checks every physical gate at every legal drive, on
// one re-timer per circuit, against a full Analyze.
func TestTrialCPDSweep(t *testing.T) {
	circuits := []*netlist.Circuit{
		gen.MustBuild("c880"), gen.MustBuild("Adder16"), gen.MustBuild("c6288"), approximated(t),
	}
	for _, c := range circuits {
		rt, _ := newRetimer(t, c)
		trials := 0
		for id := range c.Gates {
			if c.Gates[id].Func.IsPseudo() {
				continue
			}
			for d := cell.X1; d < cell.NumDrives; d++ {
				checkTrial(t, c, rt, id, d)
				trials++
			}
		}
		if trials == 0 {
			t.Fatalf("%s: no trials", c.Name)
		}
	}
}

// TestRetimerRebind follows an accepted resize: after Rebind to a fresh
// Analyze, trials match the resized netlist.
func TestRetimerRebind(t *testing.T) {
	c := gen.MustBuild("Adder16")
	rt, rep := newRetimer(t, c)
	for _, id := range rep.CriticalGates(c, 0)[:4] {
		c.Gates[id].Drive = cell.X4
		rep, err := sta.Analyze(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		rt.Rebind(rep)
		for _, probe := range rep.CriticalGates(c, 0.05) {
			checkTrial(t, c, rt, probe, cell.X8)
		}
	}
}

func TestTrialCPDAllocatesNothing(t *testing.T) {
	c := gen.MustBuild("c880")
	rt, rep := newRetimer(t, c)
	cands := rep.CriticalGates(c, 0.05)
	k := 0
	allocs := testing.AllocsPerRun(200, func() {
		rt.TrialCPD(cands[k%len(cands)], cell.X2)
		k++
	})
	if allocs != 0 {
		t.Errorf("TrialCPD allocates %v times per trial, want 0", allocs)
	}
}

// relabeled renumbers c's gates by a random permutation, so gate IDs stop
// following the topological order (the ascending change set then lists
// consumers before their drivers).
func relabeled(rng *rand.Rand, c *netlist.Circuit) *netlist.Circuit {
	perm := rng.Perm(len(c.Gates))
	out := netlist.New(c.Name)
	out.Gates = make([]netlist.Gate, len(c.Gates))
	for id, g := range c.Gates {
		fanin := make([]int, len(g.Fanin))
		for pin, fi := range g.Fanin {
			fanin[pin] = perm[fi]
		}
		g.Fanin = fanin
		out.Gates[perm[id]] = g
	}
	for _, id := range c.PIs {
		out.PIs = append(out.PIs, perm[id])
	}
	for _, id := range c.POs {
		out.POs = append(out.POs, perm[id])
	}
	return out
}

// lacCandidate derives a candidate of c the way the optimizers do: rewires
// whose switch is a gate of the target's transitive fan-in or a constant
// (the latter only where it precedes every consumer in c's topological
// order), and drive changes. A retype gives one gate another function of
// its arity, port pseudo-cells included, which Analyze times like any
// other candidate. lacCandidate returns the candidate and its change set:
// every gate whose function, fan-ins or drive differ, in ascending ID.
func lacCandidate(t testing.TB, rng *rand.Rand, c *netlist.Circuit, rewires, resizes, retypes int) (*netlist.Circuit, []int) {
	t.Helper()
	pos, err := c.TopoPos()
	if err != nil {
		t.Fatal(err)
	}
	cand := c.Clone()
	for k := 0; k < rewires; k++ {
		target := rng.Intn(len(cand.Gates))
		if cand.Gates[target].Func.IsPseudo() {
			continue
		}
		tfi := cand.TFI(target)
		var switches []int
	gates:
		for id, g := range cand.Gates {
			switch {
			case tfi[id] && id != target:
				switches = append(switches, id)
			case g.Func.IsConst():
				for _, fo := range cand.Fanouts()[target] {
					if pos[id] >= pos[fo] {
						continue gates
					}
				}
				switches = append(switches, id)
			}
		}
		if len(switches) > 0 {
			cand.ReplaceFanin(target, switches[rng.Intn(len(switches))])
		}
	}
	for k := 0; k < resizes; k++ {
		if id := rng.Intn(len(cand.Gates)); !cand.Gates[id].Func.IsPseudo() {
			cand.Gates[id].Drive = cell.Drive(rng.Intn(int(cell.NumDrives)))
		}
	}
	for k := 0; k < retypes; k++ {
		g := &cand.Gates[rng.Intn(len(cand.Gates))]
		if f := cell.Func(rng.Intn(int(cell.NumFuncs))); g.Func != cell.OutPort && f.Arity() == len(g.Fanin) {
			g.Func = f
		}
	}
	var changed []int
	for id := range cand.Gates {
		g, r := &cand.Gates[id], &c.Gates[id]
		if g.Func != r.Func || g.Drive != r.Drive || !slices.Equal(g.Fanin, r.Fanin) {
			changed = append(changed, id)
		}
	}
	return cand, changed
}

// checkCandidate requires the re-timer's CPD, logic depth and every PO
// arrival of the candidate to equal a full Analyze bit for bit.
func checkCandidate(t testing.TB, rt *sta.Retimer, cand *netlist.Circuit, changed []int) {
	t.Helper()
	want, err := sta.Analyze(cand, lib)
	if err != nil {
		t.Fatal(err)
	}
	poArrival := make([]float64, len(cand.POs))
	cpd, depth := rt.Time(cand, changed, poArrival)
	if math.Float64bits(cpd) != math.Float64bits(want.CPD) || depth != want.MaxDepth {
		t.Fatalf("%s, changed %v: Time = (%v, %d), Analyze = (%v, %d)", cand.Name, changed, cpd, depth, want.CPD, want.MaxDepth)
	}
	for i, a := range poArrival {
		if math.Float64bits(a) != math.Float64bits(want.POArrival[i]) {
			t.Fatalf("%s, changed %v: PO %d arrival = %v, Analyze = %v", cand.Name, changed, i, a, want.POArrival[i])
		}
	}
}

// FuzzCandidateTiming is the candidate walk's differential oracle: on a
// random DAG, with gate IDs in creation order or relabeled at random, two
// successive LAC-style candidates (rewires, drive changes and sometimes a
// function change; the second checks the first left no trace) and a resize
// trial must each match a full Analyze bit for bit. The seed corpus is under
// testdata/fuzz/FuzzCandidateTiming.
func FuzzCandidateTiming(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint8, rewires uint8, resizes uint8) {
		rng := rand.New(rand.NewSource(seed))
		c := randomDAG(rng, int(size)%96+1)
		if seed%2 != 0 {
			c = relabeled(rng, c)
		}
		rt, _ := newRetimer(t, c)
		cand, changed := lacCandidate(t, rng, c, int(rewires)%8, int(resizes)%8, int(rewires)/128)
		checkCandidate(t, rt, cand, changed)
		cand, changed = lacCandidate(t, rng, c, rng.Intn(4), rng.Intn(4), rng.Intn(2))
		checkCandidate(t, rt, cand, changed)
		checkTrial(t, c, rt, rng.Intn(len(c.Gates)), cell.Drive(rng.Intn(int(cell.NumDrives))))
		if cand, changed := invCandidate(rng, c); cand != nil {
			checkCandidate(t, rt, cand, changed)
		}
	})
}

// invCandidate applies one random inverted-wire substitution to a clone
// of c: the consumers of a random physical target read a fresh inverter of
// a switch from the target's fan-in cone. It returns nil when the target
// drew has no such switch.
func invCandidate(rng *rand.Rand, c *netlist.Circuit) (*netlist.Circuit, []int) {
	target := rng.Intn(len(c.Gates))
	if c.Gates[target].Func.IsPseudo() {
		return nil, nil
	}
	tfi := c.TFI(target)
	var switches []int
	for id := range c.Gates {
		if tfi[id] && id != target {
			switches = append(switches, id)
		}
	}
	if len(switches) == 0 {
		return nil, nil
	}
	return withInverter(c, target, switches[rng.Intn(len(switches))])
}

// withInverter returns a clone of c whose consumers of target read a
// fresh inverter of sw, and its change set: the rewired consumers and the
// inverter, ascending.
func withInverter(c *netlist.Circuit, target, sw int) (*netlist.Circuit, []int) {
	cand := c.Clone()
	inv := cand.AddGate(cell.Inv, sw)
	cand.ReplaceFanin(target, inv)
	var changed []int
	for id := range c.Gates {
		if !slices.Equal(cand.Gates[id].Fanin, c.Gates[id].Fanin) {
			changed = append(changed, id)
		}
	}
	return cand, append(changed, inv)
}

// TestCandidateTimingAppendedInverter times inverted-wire candidates,
// which append an inverter beyond the re-timer's circuit, against a full
// Analyze. The hand-built circuit runs a chain of inverters from PI a to
// PO y, the critical path, and a short path from b through t to PO z. The
// cases: t's consumer, a PO port, reads an inverter of PI b; then of the
// chain's first gate, whose delay the inverter's extra load raises, which
// moves the CPD; and a seventh of the target and switch pairs of c880 and
// Adder16 after LACs and inverted wires.
func TestCandidateTimingAppendedInverter(t *testing.T) {
	c := netlist.New("chain")
	a, b := c.AddInput("a"), c.AddInput("b")
	first := c.AddGate(cell.Inv, a)
	last := first
	for k := 0; k < 8; k++ {
		last = c.AddGate(cell.Inv, last)
	}
	c.AddOutput("y", last)
	tg := c.AddGate(cell.And2, b, first)
	c.AddOutput("z", tg)
	rt, rep := newRetimer(t, c)
	for _, sw := range []int{b, first} {
		cand, changed := withInverter(c, tg, sw)
		checkCandidate(t, rt, cand, changed)
		if sw == first {
			want, err := sta.Analyze(cand, lib)
			if err != nil {
				t.Fatal(err)
			}
			if want.CPD == rep.CPD {
				t.Fatalf("the inverter's load on the chain left the CPD at %v", rep.CPD)
			}
		}
	}
	for _, name := range []string{"c880", "Adder16"} {
		// A greedy round's parent: LACs and inverted wires already applied.
		c := gen.MustBuild(name)
		c.Const0()
		c.Const1()
		rng := rand.New(rand.NewSource(9))
		v := sim.Random(rng, len(c.PIs), 256)
		for k := 0; k < 4; k++ {
			res, err := sim.Run(c, v)
			if err != nil {
				t.Fatal(err)
			}
			lac.RandomChange(c, res, rng)
			if cand, _ := invCandidate(rng, c); cand != nil {
				c = cand
			}
		}
		rt, _ := newRetimer(t, c)
		for target, g := range c.Gates {
			if g.Func.IsPseudo() {
				continue
			}
			tfi := c.TFI(target)
			for sw := range c.Gates {
				if tfi[sw] && sw != target && (sw+target)%7 == 0 {
					cand, changed := withInverter(c, target, sw)
					checkCandidate(t, rt, cand, changed)
				}
			}
		}
	}
}

// TestCandidateTimingSweep times LAC candidates of real circuits, with and
// without drive changes, against a full Analyze.
func TestCandidateTimingSweep(t *testing.T) {
	for _, name := range []string{"c880", "Adder16", "c6288", "Max16"} {
		c := gen.MustBuild(name)
		c.Const0()
		c.Const1()
		rt, _ := newRetimer(t, c)
		rng := rand.New(rand.NewSource(5))
		for k := 0; k < 40; k++ {
			cand, changed := lacCandidate(t, rng, c, 1+k%6, k%3, 0)
			checkCandidate(t, rt, cand, changed)
		}
	}
}

func TestCandidateTimingAllocatesNothing(t *testing.T) {
	c := gen.MustBuild("c880")
	c.Const0()
	c.Const1()
	rt, _ := newRetimer(t, c)
	cand, changed := lacCandidate(t, rand.New(rand.NewSource(2)), c, 6, 4, 0)
	poArrival := make([]float64, len(cand.POs))
	allocs := testing.AllocsPerRun(200, func() {
		rt.Time(cand, changed, poArrival)
	})
	if allocs != 0 {
		t.Errorf("Time allocates %v times per candidate, want 0", allocs)
	}
}
