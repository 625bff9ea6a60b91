package sizing

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

var lib = cell.Default28nm()

// fanoutTree builds a circuit with a heavily loaded spine so upsizing has
// real CPD gains: a chain of ANDs where each stage also fans out to leaf
// inverters feeding POs.
func fanoutTree(depth, leaves int) *netlist.Circuit {
	c := netlist.New("tree")
	a := c.AddInput("a")
	b := c.AddInput("b")
	spine := c.AddGate(cell.And2, a, b)
	for d := 0; d < depth; d++ {
		for l := 0; l < leaves; l++ {
			leaf := c.AddGate(cell.Inv, spine)
			c.AddOutput("y", leaf)
		}
		spine = c.AddGate(cell.And2, spine, b)
	}
	c.AddOutput("z", spine)
	return c
}

func TestPostOptimizeReducesCPDWithHeadroom(t *testing.T) {
	c := fanoutTree(6, 5)
	base, err := sta.Analyze(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	area := c.Area(lib)
	res, err := PostOptimize(c, lib, Options{AreaCon: area * 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CPD >= base.CPD {
		t.Errorf("post-opt must reduce CPD with 30%% headroom: %.2f -> %.2f", base.CPD, res.Report.CPD)
	}
	if res.Area > area*1.3+1e-9 {
		t.Errorf("area %.2f exceeds budget %.2f", res.Area, area*1.3)
	}
	if res.Upsized == 0 {
		t.Error("expected at least one upsize move")
	}
}

func TestPostOptimizeRespectsTightBudget(t *testing.T) {
	c := fanoutTree(4, 3)
	area := c.Area(lib)
	res, err := PostOptimize(c, lib, Options{AreaCon: area}) // zero headroom
	if err != nil {
		t.Fatal(err)
	}
	if res.Area > area+1e-9 {
		t.Errorf("area %.2f exceeds zero-headroom budget %.2f", res.Area, area)
	}
}

func TestPostOptimizeDownsizesWhenOverBudget(t *testing.T) {
	c := fanoutTree(4, 3)
	// Pre-inflate every gate to X4 so the netlist is over an X1-ish
	// budget.
	for id := range c.Gates {
		if !c.Gates[id].Func.IsPseudo() {
			c.Gates[id].Drive = cell.X4
		}
	}
	inflated := c.Area(lib)
	budget := inflated * 0.5
	res, err := PostOptimize(c, lib, Options{AreaCon: budget})
	if err != nil {
		t.Fatal(err)
	}
	if res.Area > budget+1e-9 {
		t.Errorf("area %.2f exceeds budget %.2f after downsizing", res.Area, budget)
	}
	if res.Downsized == 0 {
		t.Error("expected downsize moves when over budget")
	}
}

func TestPostOptimizeDeletesDangling(t *testing.T) {
	c := fanoutTree(3, 2)
	// Dangle a subtree by rewiring the last PO to a constant.
	po := c.POs[len(c.POs)-1]
	c.SetFanin(po, 0, c.Const0())
	res, err := PostOptimize(c, lib, Options{AreaCon: c.Area(lib) * 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemovedGates == 0 {
		t.Error("dangling gates must be deleted")
	}
	live := res.Circuit.Live()
	for id := range res.Circuit.Gates {
		if !live[id] {
			t.Fatal("post-opt output still has dangling gates")
		}
	}
	if err := res.Circuit.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPostOptimizeDoesNotMutateInput(t *testing.T) {
	c := fanoutTree(3, 2)
	drives := make([]cell.Drive, len(c.Gates))
	for id := range c.Gates {
		drives[id] = c.Gates[id].Drive
	}
	n := c.NumGates()
	if _, err := PostOptimize(c, lib, Options{AreaCon: c.Area(lib) * 1.5}); err != nil {
		t.Fatal(err)
	}
	if c.NumGates() != n {
		t.Error("input circuit gate count changed")
	}
	for id := range c.Gates {
		if c.Gates[id].Drive != drives[id] {
			t.Error("input circuit drive changed")
		}
	}
}

func TestMoreHeadroomNeverWorse(t *testing.T) {
	c := fanoutTree(5, 4)
	area := c.Area(lib)
	var prev float64
	for i, ratio := range []float64{1.0, 1.1, 1.2, 1.4} {
		res, err := PostOptimize(c, lib, Options{AreaCon: area * ratio})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Report.CPD > prev+1e-9 {
			t.Errorf("CPD at %.1fx budget (%.2f) worse than smaller budget (%.2f)", ratio, res.Report.CPD, prev)
		}
		prev = res.Report.CPD
	}
}

func TestMaxMovesBound(t *testing.T) {
	c := fanoutTree(6, 5)
	res, err := PostOptimize(c, lib, Options{AreaCon: c.Area(lib) * 2, MaxMoves: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Upsized > 3 {
		t.Errorf("Upsized = %d, exceeds MaxMoves 3", res.Upsized)
	}
}

// referencePostOptimize is PostOptimize with a full sta.Analyze per
// upsizing trial: the plain path the re-timer replaces, kept as the
// differential oracle.
func referencePostOptimize(c *netlist.Circuit, lib *cell.Library, opts Options) (*Result, error) {
	if opts.MaxMoves <= 0 {
		opts.MaxMoves = min(4*c.NumGates(), maxMoves)
	}
	before := c.NumGates()
	nc, _ := c.Compact()
	res := &Result{Circuit: nc, RemovedGates: before - nc.NumGates()}
	rep, err := sta.Analyze(nc, lib)
	if err != nil {
		return nil, err
	}
	area := nc.Area(lib)
	for area > opts.AreaCon {
		id := bestDownsize(nc, lib, rep)
		if id < 0 {
			break
		}
		nc.Gates[id].Drive--
		res.Downsized++
		if rep, err = sta.Analyze(nc, lib); err != nil {
			return nil, err
		}
		area = nc.Area(lib)
	}
	for moves := 0; moves < opts.MaxMoves; moves++ {
		bestID, bestGain := -1, minGain
		bestArea := 0.0
		cands := rep.CriticalGates(nc, critMargin)
		if len(cands) > maxCandidates {
			sort.Slice(cands, func(i, j int) bool {
				return rep.Slack[cands[i]] < rep.Slack[cands[j]]
			})
			cands = cands[:maxCandidates]
		}
		for _, id := range cands {
			g := &nc.Gates[id]
			if g.Drive+1 >= cell.NumDrives {
				continue
			}
			dArea := lib.Area(g.Func, g.Drive+1) - lib.Area(g.Func, g.Drive)
			if area+dArea > opts.AreaCon {
				continue
			}
			res.Trials++
			g.Drive++
			trial, err := sta.Analyze(nc, lib)
			g.Drive--
			if err != nil {
				return nil, err
			}
			if gain := rep.CPD - trial.CPD; gain > bestGain {
				bestID, bestGain, bestArea = id, gain, dArea
			}
		}
		if bestID < 0 {
			break
		}
		nc.Gates[bestID].Drive++
		area += bestArea
		res.Upsized++
		if rep, err = sta.Analyze(nc, lib); err != nil {
			return nil, err
		}
	}
	res.Report = rep
	res.Area = area
	return res, nil
}

// lacApproximated returns a generated benchmark with real LACs applied,
// the shape post-optimization sees at the end of a flow.
func lacApproximated(t *testing.T, name string, lacs int, seed int64) *netlist.Circuit {
	t.Helper()
	c := gen.MustBuild(name)
	c.Const0()
	c.Const1()
	rng := rand.New(rand.NewSource(seed))
	v := sim.Random(rng, len(c.PIs), 256)
	for k := 0; k < lacs; k++ {
		res, err := sim.Run(c, v)
		if err != nil {
			t.Fatal(err)
		}
		lac.RandomChange(c, res, rng)
	}
	return c
}

// TestPostOptimizeMatchesFullSTAReference requires the re-timed sizer to
// make exactly the reference's moves: the same drives, counts, CPD and
// area, bit for bit.
func TestPostOptimizeMatchesFullSTAReference(t *testing.T) {
	inflated := fanoutTree(4, 3)
	for id := range inflated.Gates {
		if !inflated.Gates[id].Func.IsPseudo() {
			inflated.Gates[id].Drive = cell.X4
		}
	}
	cases := []struct {
		name string
		c    *netlist.Circuit
	}{
		{"tree", fanoutTree(6, 5)},
		{"inflated", inflated},
		{"Adder16", gen.MustBuild("Adder16")},
		{"c880+lac", lacApproximated(t, "c880", 8, 1)},
		{"Adder16+lac", lacApproximated(t, "Adder16", 5, 2)},
		{"c1908+lac", lacApproximated(t, "c1908", 10, 3)},
		{"Max16+lac", lacApproximated(t, "Max16", 6, 4)},
	}
	for _, tc := range cases {
		area := tc.c.Area(lib)
		for _, ratio := range []float64{0.5, 1.05, 1.2, 1.5} {
			opts := Options{AreaCon: area * ratio}
			got, err := PostOptimize(tc.c, lib, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referencePostOptimize(tc.c, lib, opts)
			if err != nil {
				t.Fatal(err)
			}
			where := func(field string) string { return tc.name + " at " + fmt.Sprint(ratio) + "x: " + field }
			if got.Upsized != want.Upsized || got.Downsized != want.Downsized ||
				got.Trials != want.Trials || got.RemovedGates != want.RemovedGates {
				t.Errorf("%s got %+v, want %+v", where("counts"),
					[]int{got.Upsized, got.Downsized, got.Trials, got.RemovedGates},
					[]int{want.Upsized, want.Downsized, want.Trials, want.RemovedGates})
			}
			if math.Float64bits(got.Report.CPD) != math.Float64bits(want.Report.CPD) {
				t.Errorf("%s %v, want %v", where("CPD"), got.Report.CPD, want.Report.CPD)
			}
			if math.Float64bits(got.Area) != math.Float64bits(want.Area) {
				t.Errorf("%s %v, want %v", where("Area"), got.Area, want.Area)
			}
			for id := range want.Circuit.Gates {
				if g, w := got.Circuit.Gates[id].Drive, want.Circuit.Gates[id].Drive; g != w {
					t.Errorf("%s gate %d at %v, want %v", where("drive"), id, g, w)
				}
			}
		}
	}
}
