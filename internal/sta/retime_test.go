package sta_test

import (
	"math"
	"math/rand"
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
