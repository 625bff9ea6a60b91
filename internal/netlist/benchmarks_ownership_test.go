package netlist_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/lac"
	"repro/internal/netlist"
)

// TestOwnershipOnBenchmarks runs the ownership oracle over every TABLE I
// circuit: byte-chosen operation sequences (see FuzzCloneOwnership) on a
// freshly built circuit and on a clone of it, then LAC-mutated clones
// checked after every lac.Apply while their base must stay unchanged,
// caches included.
func TestOwnershipOnBenchmarks(t *testing.T) {
	for _, b := range gen.All() {
		t.Run(b.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			base := b.Build()
			base.Const0()
			base.Const1()
			for _, c := range []*netlist.Circuit{b.Build(), base.Clone()} {
				data := make([]byte, 96)
				rng.Read(data)
				if err := netlist.RunOwnership(c, data); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := base.TopoOrder(); err != nil {
				t.Fatal(err)
			}
			snap := netlist.DeepCopy(base)
			for k := 0; k < 4; k++ {
				c := base.Clone()
				for step := 0; step < 3; step++ {
					ch := randomLAC(c, rng)
					before := netlist.DeepCopy(c)
					lac.Apply(c, ch)
					var kept []int
					if ch.Kind != lac.WireByInvWire {
						kept = netlist.KeptOrder(before, ch.Target, ch.Switch)
					}
					if err := netlist.CheckQueries(c, kept); err != nil {
						t.Fatalf("clone %d after %v: %v", k, ch, err)
					}
					if err := netlist.DiffCircuit(base, snap, true); err != nil {
						t.Fatalf("clone %d's %v changed the base: %v", k, ch, err)
					}
				}
			}
		})
	}
}

// randomLAC draws a loop-safe change: a random live physical target
// rewired to a gate of its transitive fan-in (directly or through a new
// inverter) or to a constant.
func randomLAC(c *netlist.Circuit, rng *rand.Rand) lac.Change {
	live := c.Live()
	var phys []int
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	target := phys[rng.Intn(len(phys))]
	tfi := c.TFI(target)
	var cands []int
	for id, g := range c.Gates {
		if tfi[id] && id != target && !g.Func.IsPseudo() {
			cands = append(cands, id)
		}
	}
	kind := lac.Kind(rng.Intn(3))
	if len(cands) == 0 || kind == lac.WireByConst {
		return lac.Change{Target: target, Switch: c.Const0(), Kind: lac.WireByConst}
	}
	return lac.Change{Target: target, Switch: cands[rng.Intn(len(cands))], Kind: kind}
}
