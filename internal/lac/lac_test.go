package lac

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/errest"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

var lib = cell.Default28nm()

// fig3 rebuilds the paper's running example (see netlist tests).
func fig3(t *testing.T) (*netlist.Circuit, map[int]int) {
	t.Helper()
	c := netlist.New("fig3")
	ids := map[int]int{}
	for i := 1; i <= 4; i++ {
		ids[i] = c.AddInput("n")
	}
	add := func(p int, f cell.Func, fin ...int) {
		m := make([]int, len(fin))
		for i, x := range fin {
			m[i] = ids[x]
		}
		ids[p] = c.AddGate(f, m...)
	}
	add(5, cell.And2, 1, 2)
	add(6, cell.Or2, 2, 3)
	add(7, cell.Nand2, 3, 4)
	add(8, cell.And2, 5, 6)
	add(9, cell.Xor2, 6, 7)
	add(10, cell.Or2, 4, 7)
	add(11, cell.Or2, 5, 8)
	add(12, cell.And2, 9, 10)
	ids[13] = c.AddOutput("po1", ids[11])
	ids[14] = c.AddOutput("po2", ids[9])
	ids[15] = c.AddOutput("po3", ids[12])
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

func simAndTime(t *testing.T, c *netlist.Circuit) (*sim.Result, *sta.Report) {
	t.Helper()
	v, err := sim.Exhaustive(len(c.PIs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(c, v)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sta.Analyze(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	return res, r
}

func TestTargetsOnlyPhysicalGates(t *testing.T) {
	c, _ := fig3(t)
	_, r := simAndTime(t, c)
	rng := rand.New(rand.NewSource(1))
	tc := Targets(c, r, rng, 0.2)
	if len(tc) == 0 {
		t.Fatal("Tc must not be empty on a non-trivial circuit")
	}
	for _, id := range tc {
		if c.Gates[id].Func.IsPseudo() {
			t.Errorf("Tc contains pseudo gate %d (%v)", id, c.Gates[id].Func)
		}
	}
}

func TestTargetsIncludesCriticalPathGates(t *testing.T) {
	c, _ := fig3(t)
	_, r := simAndTime(t, c)
	crit := map[int]bool{}
	for _, id := range r.CriticalPath(c) {
		if !c.Gates[id].Func.IsPseudo() {
			crit[id] = true
		}
	}
	tc := Targets(c, r, rand.New(rand.NewSource(2)), 0)
	inTc := map[int]bool{}
	for _, id := range tc {
		inTc[id] = true
	}
	for id := range crit {
		if !inTc[id] {
			t.Errorf("critical-path gate %d missing from Tc", id)
		}
	}
}

func TestBestSwitchStaysInTFI(t *testing.T) {
	c, ids := fig3(t)
	res, r := simAndTime(t, c)
	for p := 5; p <= 12; p++ {
		target := ids[p]
		ch, ok := BestSwitch(c, res, r, target)
		if !ok {
			t.Fatalf("no switch for gate %d", p)
		}
		if ch.Kind == WireByWire {
			tfi := c.TFI(target)
			if !tfi[ch.Switch] || ch.Switch == target {
				t.Errorf("switch %d for target %d escapes its TFI", ch.Switch, target)
			}
		} else if !c.Gates[ch.Switch].Func.IsConst() {
			t.Errorf("wire-by-const change selected non-const gate %d", ch.Switch)
		}
		if ch.Similarity < 0 || ch.Similarity > 1 {
			t.Errorf("similarity %v out of range", ch.Similarity)
		}
	}
}

func TestBestSwitchPicksMaxSimilarity(t *testing.T) {
	c, ids := fig3(t)
	res, r := simAndTime(t, c)
	target := ids[8]
	ch, ok := BestSwitch(c, res, r, target)
	if !ok {
		t.Fatal("no switch found")
	}
	// Verify no candidate beats the chosen similarity.
	tfi := c.TFI(target)
	for id := range c.Gates {
		if !tfi[id] || id == target || c.Gates[id].Func == cell.OutPort || c.Gates[id].Func.IsConst() {
			continue
		}
		if s := errest.Similarity(res, target, id); s > ch.Similarity+1e-12 {
			t.Errorf("candidate %d has similarity %v > chosen %v", id, s, ch.Similarity)
		}
	}
	for _, cs := range []float64{errest.ConstSimilarity(res, target, false), errest.ConstSimilarity(res, target, true)} {
		if cs > ch.Similarity+1e-12 {
			t.Errorf("constant similarity %v beats chosen %v", cs, ch.Similarity)
		}
	}
}

func TestApplyNeverCreatesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		c, _ := fig3(t)
		res, r := simAndTime(t, c)
		if _, ok := SearchN(c, res, r, rng, 0.3, 1); !ok {
			continue
		}
		if _, err := c.TopoOrder(); err != nil {
			t.Fatalf("trial %d: LAC created a loop: %v", trial, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: LAC broke the netlist: %v", trial, err)
		}
	}
}

func TestSearchShortensOrHoldsCriticalPathArea(t *testing.T) {
	// A LAC rewires consumers to an earlier-arriving signal, so the live
	// area must never grow and CPD must not increase on the touched path
	// beyond the original (depth can only shrink at the changed pin).
	rng := rand.New(rand.NewSource(3))
	c, _ := fig3(t)
	areaBefore := c.Area(lib)
	res, r := simAndTime(t, c)
	if _, ok := SearchN(c, res, r, rng, 0.2, 1); !ok {
		t.Skip("no change applied")
	}
	if c.Area(lib) > areaBefore+1e-9 {
		t.Error("a LAC must never increase live area")
	}
}

func TestRandomChangeValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		c, _ := fig3(t)
		res, _ := simAndTime(t, c)
		if _, ok := RandomChange(c, res, rng); !ok {
			t.Fatal("RandomChange found no target on a live circuit")
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPickTargetEmpty(t *testing.T) {
	if PickTarget(nil, rand.New(rand.NewSource(1))) != -1 {
		t.Error("PickTarget on empty Tc must return -1")
	}
}

func TestBestSwitchRejectsPseudoTargets(t *testing.T) {
	c, _ := fig3(t)
	res, r := simAndTime(t, c)
	if _, ok := BestSwitch(c, res, r, c.PIs[0]); ok {
		t.Error("PIs must not be accepted as targets")
	}
	if _, ok := BestSwitch(c, res, r, c.POs[0]); ok {
		t.Error("POs must not be accepted as targets")
	}
	if _, ok := BestSwitch(c, res, r, -1); ok {
		t.Error("negative target must be rejected")
	}
}

func TestKindString(t *testing.T) {
	if WireByWire.String() != "wire-by-wire" || WireByConst.String() != "wire-by-const" {
		t.Error("Kind.String mismatch")
	}
	if WireByInvWire.String() != "wire-by-inv-wire" {
		t.Error("inverted kind name")
	}
}

func TestBestSwitchInvFindsComplement(t *testing.T) {
	// Build a target that is exactly the complement of a TFI signal: the
	// inverted substitution must win with similarity 1.
	c := netlist.New("inv")
	a := c.AddInput("a")
	b := c.AddInput("b")
	and := c.AddGate(cell.And2, a, b)
	nand := c.AddGate(cell.Nand2, a, b) // complement of and... but not in its TFI
	_ = nand
	inv := c.AddGate(cell.Inv, and) // INV(and) is in no one's TFI yet
	target := c.AddGate(cell.Inv, inv)
	deep := c.AddGate(cell.Buf, target)
	c.AddOutput("y", deep)
	v, err := sim.Exhaustive(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(c, v)
	if err != nil {
		t.Fatal(err)
	}
	// target == and (double inversion); its TFI contains inv == NOT(and).
	// Plain BestSwitch finds `and` (sim 1); inverted search may tie.
	ch, ok := BestSwitchInv(c, res, nil, target)
	if !ok {
		t.Fatal("no switch")
	}
	if ch.Similarity != 1 {
		t.Fatalf("similarity = %v, want 1", ch.Similarity)
	}
	n := c.NumGates()
	Apply(c, ch)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if ch.Kind == WireByInvWire && c.NumGates() != n+1 {
		t.Error("inverted substitution must materialize one inverter")
	}
	// Function must be preserved exactly (similarity was 1).
	res2, err := sim.Run(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if sim.CountDiff(res2.Signals[c.POs[0]], res.Signals[c.POs[0]]) != 0 {
		t.Error("similarity-1 substitution changed the function")
	}
}

func TestBestSwitchInvNeverCreatesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		c, ids := fig3(t)
		res, r := simAndTime(t, c)
		target := ids[5+rng.Intn(8)]
		ch, ok := BestSwitchInv(c, res, r, target)
		if !ok {
			continue
		}
		Apply(c, ch)
		if _, err := c.TopoOrder(); err != nil {
			t.Fatalf("trial %d: inverted LAC created a loop: %v", trial, err)
		}
	}
}
