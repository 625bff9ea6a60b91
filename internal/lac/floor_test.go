package lac

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// referenceSelect is Select on full counts: every physical target is
// scored by referenceBestSwitch, and the first strictly greater pick in
// draw order wins. Pseudo and out-of-range targets have no pick.
func referenceSelect(c *netlist.Circuit, res *sim.Result, r *sta.Report, targets []int) (Change, bool) {
	best := Change{Similarity: -1}
	for _, target := range targets {
		if target < 0 || target >= len(c.Gates) || c.Gates[target].Func.IsPseudo() {
			continue
		}
		if ch, _ := referenceBestSwitch(c, res, r, target); ch.Similarity > best.Similarity {
			best = ch
		}
	}
	if best.Similarity < 0 {
		return Change{}, false
	}
	return best, true
}

// checkSelect runs the memoized Select, with and without the targets'
// fan-in masks, and the memo-less Select on one target list and compares
// each with referenceSelect: the same Target, Switch, Kind and similarity
// bits, or no pick on both sides.
func checkSelect(t *testing.T, what string, memo *Memo, c *netlist.Circuit, res *sim.Result, differs func(int) bool, r *sta.Report, targets []int) {
	t.Helper()
	want, wantOK := referenceSelect(c, res, r, targets)
	tfi := make([][]bool, len(targets))
	for k, target := range targets {
		if target >= 0 && target < len(c.Gates) {
			tfi[k] = c.TFI(target)
		}
	}
	for _, got := range []struct {
		how string
		m   *Memo
		tfi [][]bool
	}{{"memo", memo, nil}, {"memo, fan-in masks", memo, tfi}, {"memo-less", nil, nil}} {
		ch, ok := got.m.Select(c, res, differs, r, targets, got.tfi)
		if ok != wantOK || ok && !sameChange(ch, want) {
			t.Fatalf("%s, targets %v, %s: got %+v, %v; want %+v, %v", what, targets, got.how, ch, ok, want, wantOK)
		}
	}
}

// pseudoTargets lists entries Select must skip: a primary input, both
// constants, a PO port and an out-of-range ID.
func pseudoTargets(c *netlist.Circuit) []int {
	return []int{c.PIs[0], c.Const0(), c.Const1(), c.POs[0], -1}
}

// randomTargets draws a list of 1–6 physical targets with duplicates
// likely (they come from a pool of at most four), then, half the time,
// appends one to three pseudo entries after them.
func randomTargets(phys, pseudo []int, rng *rand.Rand) []int {
	pool := make([]int, 1+rng.Intn(4))
	for i := range pool {
		pool[i] = phys[rng.Intn(len(phys))]
	}
	targets := make([]int, 1+rng.Intn(6))
	for i := range targets {
		targets[i] = pool[rng.Intn(len(pool))]
	}
	if rng.Intn(2) == 0 {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			targets = append(targets, pseudo[rng.Intn(len(pseudo))])
		}
	}
	return targets
}

// physicalGates lists the circuit's physical gate IDs.
func physicalGates(c *netlist.Circuit) []int {
	var phys []int
	for id, g := range c.Gates {
		if !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	return phys
}

// TestSelectFloorMatchesReference checks the cross-target floor on
// LAC-mutated c880, Cavlc and Max16 candidates at 2048 and 131072
// vectors. Each candidate gets random lists of 1–6 targets, with
// duplicates and, in half of them, PI, constant, PO-port and out-of-range
// entries after the real targets. Select through one memo kept across the
// candidates, so partial counts stored in it would be replayed, and
// memo-less Select must both equal the full-count reference.
func TestSelectFloorMatchesReference(t *testing.T) {
	for _, name := range []string{"c880", "Cavlc", "Max16"} {
		for _, n := range []int{2048, 1 << 17} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				base := gen.MustBuild(name)
				base.Const0()
				base.Const1()
				rng := rand.New(rand.NewSource(int64(n) + 11))
				v := sim.Random(rng, len(base.PIs), n)
				golden, err := sim.Run(base, v)
				if err != nil {
					t.Fatal(err)
				}
				simr, err := sim.NewSimulator(base, v, golden)
				if err != nil {
					t.Fatal(err)
				}
				memo := NewMemo(golden)
				candidates, lists := 4, 60
				if n == 1<<17 {
					candidates, lists = 2, 15
				}
				cand := base.Clone()
				for k := 0; k <= candidates; k++ {
					res, err := simr.Simulate(cand)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := sta.Analyze(cand, lib)
					if err != nil {
						t.Fatal(err)
					}
					phys, pseudo := physicalGates(cand), pseudoTargets(cand)
					for l := 0; l < lists; l++ {
						targets := randomTargets(phys, pseudo, rng)
						checkSelect(t, fmt.Sprintf("candidate %d", k), memo, cand, res, simr.SignalDiffers, rep, targets)
					}
					if _, ok := RandomChange(cand, res, rng); !ok {
						t.Fatalf("candidate %d: no change applied", k)
					}
				}
			})
		}
	}
}

// TestSelectFloorKeepsEarlierTie hand-builds the floor's tie: x =
// AND(a, b) agrees with input a on 6 of the 8 exhaustive vectors, and z =
// NOR(b, c) is 0 on 6 of them while each of its fan-ins agrees with it on
// only 2, so z's pick is constant 0 at 0.75 — exactly x's best wire. With
// z drawn after x, x's floor is z's constant similarity, which x's pick
// only equals, so x must still win; drawn first, z wins the tie.
func TestSelectFloorKeepsEarlierTie(t *testing.T) {
	c := netlist.New("floor-tie")
	a, b, cc := c.AddInput("a"), c.AddInput("b"), c.AddInput("c")
	x := c.AddGate(cell.And2, a, b)
	z := c.AddGate(cell.Nor2, b, cc)
	c.AddOutput("x", x)
	c.AddOutput("z", z)
	c.Const0()
	c.Const1()
	res, r := simAndTime(t, c)
	memo := NewMemo(res)
	never := func(int) bool { return false }
	for _, tc := range []struct {
		targets []int
		want    Change
	}{
		{[]int{x, z}, Change{Target: x, Switch: a, Kind: WireByWire, Similarity: 0.75}},
		{[]int{x, z, c.Const0(), a}, Change{Target: x, Switch: a, Kind: WireByWire, Similarity: 0.75}},
		{[]int{z, x}, Change{Target: z, Switch: c.Const0(), Kind: WireByConst, Similarity: 0.75}},
	} {
		checkSelect(t, "floor tie", memo, c, res, never, r, tc.targets)
		if got, _ := (*Memo)(nil).Select(c, res, nil, r, tc.targets, nil); !sameChange(got, tc.want) {
			t.Fatalf("targets %v: got %+v, want %+v", tc.targets, got, tc.want)
		}
	}
}

// fuzzSelectCircuits are the gen circuits FuzzSelect draws from.
var fuzzSelectCircuits = []string{"c880", "Cavlc", "Max16", "Adder16", "Int2float", "c1908"}

// FuzzSelect compares Select with the full-count reference on fuzzed
// inputs: circuit picks one of fuzzSelectCircuits, seed and lacs a random
// LAC sequence (up to 15 RandomChange moves) and the input sample,
// vectors a sample size from 64 to 4096 (mostly with a partial last
// word), and each byte pair of list one target list entry (up to six):
// the first byte's low three bits choose a PI, a constant, a PO port, an
// out-of-range ID or (five values in eight) a physical gate, which the
// rest of the pair indexes. The memoized Select runs through a memo that
// first scored the accurate circuit with the same list, so the candidate
// replays its rows; the memo-less one runs as well. The seed corpus is
// under testdata/fuzz/FuzzSelect.
func FuzzSelect(f *testing.F) {
	f.Fuzz(func(t *testing.T, circuit uint8, seed int64, lacs uint8, vectors uint16, list []byte) {
		base := gen.MustBuild(fuzzSelectCircuits[int(circuit)%len(fuzzSelectCircuits)])
		base.Const0()
		base.Const1()
		rng := rand.New(rand.NewSource(seed))
		v := sim.Random(rng, len(base.PIs), 64+int(vectors)%4033)
		golden, err := sim.Run(base, v)
		if err != nil {
			t.Fatal(err)
		}
		simr, err := sim.NewSimulator(base, v, golden)
		if err != nil {
			t.Fatal(err)
		}
		memo := NewMemo(golden)
		cand := base.Clone()
		for k := int(lacs) % 16; k > 0; k-- {
			res, err := simr.Simulate(cand)
			if err != nil {
				t.Fatal(err)
			}
			RandomChange(cand, res, rng)
		}
		phys := physicalGates(base)
		consts := []int{base.Const0(), base.Const1()}
		outside := []int{-1, len(base.Gates)}
		var targets []int
		for i := 0; i+1 < len(list) && len(targets) < 6; i += 2 {
			idx := int(list[i]>>3)<<8 | int(list[i+1])
			pick := phys
			switch list[i] & 7 {
			case 0:
				pick = base.PIs
			case 1:
				pick = consts
			case 2:
				pick = base.POs
			case 3:
				pick = outside
			}
			targets = append(targets, pick[idx%len(pick)])
		}
		for _, c := range []*netlist.Circuit{base, cand} {
			res, err := simr.Simulate(c)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sta.Analyze(c, lib)
			if err != nil {
				t.Fatal(err)
			}
			checkSelect(t, c.Name, memo, c, res, simr.SignalDiffers, rep, targets)
		}
	})
}
