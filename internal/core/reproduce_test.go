package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// referenceReproduce is the plain merge the linear walk replaces: each
// pick, in level order, computes its donor's whole-circuit TFI of the PO
// and writes every gate of it not written yet.
func referenceReproduce(p1, p2 *Individual, wt, we float64) *netlist.Circuit {
	c1, c2 := p1.Circuit, p2.Circuit
	if len(c1.Gates) != len(c2.Gates) || len(c1.POs) != len(c2.POs) {
		return nil
	}
	l1 := levels(p1, wt, we)
	l2 := levels(p2, wt, we)
	type pick struct {
		po    int
		donor *netlist.Circuit
		level float64
	}
	picks := make([]pick, len(c1.POs))
	for i := range picks {
		picks[i] = pick{po: i, donor: c1, level: l1[i]}
		if l2[i] > l1[i] {
			picks[i] = pick{po: i, donor: c2, level: l2[i]}
		}
	}
	sort.Slice(picks, func(a, b int) bool { return picks[a].level > picks[b].level })
	child := c1.Clone()
	written := make([]bool, len(child.Gates))
	for _, pk := range picks {
		donor := pk.donor
		for id, in := range donor.TFI(donor.POs[pk.po]) {
			if !in || written[id] {
				continue
			}
			written[id] = true
			if donor == c1 {
				continue
			}
			g := donor.Gates[id]
			g.Name = child.Gates[id].Name
			child.SetGate(id, g)
		}
	}
	if _, err := child.TopoOrder(); err != nil {
		return nil
	}
	return child
}

// crossPair returns two physical gates neither of which feeds the other,
// so u may read v in one parent and v read u in another. Such parents
// leave the accurate circuit's topological order, which LACs never do.
func crossPair(t *testing.T, c *netlist.Circuit, rng *rand.Rand) (u, v int) {
	t.Helper()
	for try := 0; try < 10000; try++ {
		u, v = rng.Intn(len(c.Gates)), rng.Intn(len(c.Gates))
		if u == v || c.Gates[u].Func.IsPseudo() || c.Gates[v].Func.IsPseudo() {
			continue
		}
		if !c.TFI(u)[v] && !c.TFI(v)[u] {
			return u, v
		}
	}
	t.Fatalf("%s: no independent gate pair", c.Name)
	return -1, -1
}

// TestReproduceMatchesReference merges every ordered pair of a
// LAC-mutated population of c880, Max16, Max and Adder both ways: the
// linear walk and the reference. Some members carry random drives, so a
// dropped drive would show; some one of two crossed edges; and one an
// extra gate, so its pairs are rejected. No pair is cyclic: a gate
// written by a pick takes its donor's fan-ins, all written by that pick
// or an earlier one, so a cycle would lie within one acyclic donor. Both
// must reject the same pairs and otherwise build the same child, gate for
// gate: Func, Drive, Fanin and Name.
func TestReproduceMatchesReference(t *testing.T) {
	rejected, merged := 0, 0
	for _, name := range []string{"c880", "Max16", "Max", "Adder"} {
		base := gen.MustBuild(name)
		base.Const0()
		base.Const1()
		rng := rand.New(rand.NewSource(5))
		ev, err := NewEvaluator(base, lib, MetricNMED, 0.8, sim.Random(rng, len(base.PIs), 256))
		if err != nil {
			t.Fatal(err)
		}
		u, v := crossPair(t, base, rng)
		var cands []*netlist.Circuit
		for i := 0; i < 10; i++ {
			c := base.Clone()
			switch i % 4 {
			case 1:
				c.SetFanin(u, 0, v)
			case 3:
				c.SetFanin(v, 0, u)
			}
			for k := 0; k <= i; k++ {
				lacMutate(c, rng)
			}
			if i == 9 {
				c.AddGate(cell.Inv, c.PIs[0])
			}
			if i%3 == 2 {
				for id := range c.Gates {
					if !c.Gates[id].Func.IsPseudo() && rng.Intn(4) == 0 {
						c.Gates[id].Drive = cell.Drive(rng.Intn(int(cell.NumDrives)))
					}
				}
			}
			cands = append(cands, c)
		}
		pop, err := ev.EvaluateBatch(cands)
		if err != nil {
			t.Fatal(err)
		}
		wt := 0.9 * ev.RefDelay()
		for i, p1 := range pop {
			for j, p2 := range pop {
				if i == j {
					continue
				}
				got := reproduce(p1, p2, wt, 0.2)
				want := referenceReproduce(p1, p2, wt, 0.2)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s pair (%d,%d): nil %v, reference nil %v", name, i, j, got == nil, want == nil)
				}
				if want == nil {
					rejected++
					continue
				}
				merged++
				for id, w := range want.Gates {
					g := got.Gates[id]
					if g.Func != w.Func || g.Drive != w.Drive || g.Name != w.Name || !slices.Equal(g.Fanin, w.Fanin) {
						t.Fatalf("%s pair (%d,%d) gate %d: got %+v, want %+v", name, i, j, id, g, w)
					}
				}
			}
		}
	}
	if rejected == 0 || merged == 0 {
		t.Fatalf("%d rejected and %d merged pairs: both cases must be covered", rejected, merged)
	}
}
