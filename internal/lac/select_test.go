package lac

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/errest"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// referenceBestSwitch is the plain selection loop the memo and the bound
// replace: every TFI gate is scored with a full errest.Similarity count.
// It returns the picks without and with inverted wires (BestSwitch's and
// BestSwitchInv's) from one pass. A nil report breaks no ties.
func referenceBestSwitch(c *netlist.Circuit, res *sim.Result, r *sta.Report, target int) (plain, inv Change) {
	plain = Change{Target: target, Switch: -1, Similarity: -1}
	inv = plain
	better := func(best *Change, sim float64, id int) bool {
		if sim != best.Similarity {
			return sim > best.Similarity
		}
		return r != nil && best.Switch >= 0 && r.Arrival[id] < r.Arrival[best.Switch]
	}
	tfi := c.TFI(target)
	for id := range c.Gates {
		if !tfi[id] || id == target {
			continue
		}
		if f := c.Gates[id].Func; f == cell.OutPort || f.IsConst() {
			continue
		}
		s := errest.Similarity(res, target, id)
		if better(&plain, s, id) {
			plain = Change{Target: target, Switch: id, Kind: WireByWire, Similarity: s}
		}
		if better(&inv, s, id) {
			inv = Change{Target: target, Switch: id, Kind: WireByWire, Similarity: s}
		}
		if si := 1 - s; better(&inv, si, id) {
			inv = Change{Target: target, Switch: id, Kind: WireByInvWire, Similarity: si}
		}
	}
	for _, best := range []*Change{&plain, &inv} {
		if s0 := errest.ConstSimilarity(res, target, false); s0 > best.Similarity {
			*best = Change{Target: target, Switch: c.Const0(), Kind: WireByConst, Similarity: s0}
		}
		if s1 := errest.ConstSimilarity(res, target, true); s1 > best.Similarity {
			*best = Change{Target: target, Switch: c.Const1(), Kind: WireByConst, Similarity: s1}
		}
	}
	return plain, inv
}

func sameChange(a, b Change) bool {
	return a.Target == b.Target && a.Switch == b.Switch && a.Kind == b.Kind &&
		math.Float64bits(a.Similarity) == math.Float64bits(b.Similarity)
}

// TestSwitchSelectionMatchesReference scores every physical target of
// LAC-mutated c880, Cavlc and Max16 candidates, at 2048 and 131072
// vectors, three ways: through one memo kept across the candidates (as a
// run keeps it, so the accurate circuit's scoring fills it and the
// candidates replay it), memo-less with the bound (BestSwitch), and memo-less with
// inverted wires (BestSwitchInv). Each pick must equal the reference's:
// target, switch, kind and the bits of the similarity.
func TestSwitchSelectionMatchesReference(t *testing.T) {
	for _, name := range []string{"c880", "Cavlc", "Max16"} {
		for _, n := range []int{2048, 1 << 17} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				base := gen.MustBuild(name)
				base.Const0()
				base.Const1()
				rng := rand.New(rand.NewSource(int64(n)))
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
				candidates := 4
				if n == 1<<17 {
					candidates = 1
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
					for target, g := range cand.Gates {
						if g.Func.IsPseudo() {
							continue
						}
						plain, inv := referenceBestSwitch(cand, res, rep, target)
						memoCh, _ := memo.bestSwitch(cand, res, simr.SignalDiffers, rep, target, false, -1, -1, nil)
						boundCh, _ := BestSwitch(cand, res, rep, target)
						invCh, _ := BestSwitchInv(cand, res, rep, target)
						for _, got := range []struct {
							how      string
							ch, want Change
						}{{"memo", memoCh, plain}, {"bound", boundCh, plain}, {"inv", invCh, inv}} {
							if !sameChange(got.ch, got.want) {
								t.Fatalf("candidate %d, target %d, %s: got %+v, want %+v", k, target, got.how, got.ch, got.want)
							}
						}
					}
					if _, ok := RandomChange(cand, res, rng); !ok {
						t.Fatalf("candidate %d: no change applied", k)
					}
				}
			})
		}
	}
}

// TestMemoServesOnlyGoldenPairs checks the memo's eligibility rule head
// on. After the memo has scored every target of the accurate circuit, one
// gate's waveform is replaced by another's, so the two become a perfect
// pair: first a switch takes the target's waveform, then the target takes
// a switch's. The changed gate reports SignalDiffers, so the memoized pick
// must count the pair afresh and equal the reference's.
func TestMemoServesOnlyGoldenPairs(t *testing.T) {
	c := gen.MustBuild("c880")
	c.Const0()
	c.Const1()
	golden, err := sim.Run(c, sim.Random(rand.New(rand.NewSource(1)), len(c.PIs), 2048))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sta.Analyze(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo(golden)
	never := func(int) bool { return false }
	checked := 0
	for target, g := range c.Gates {
		if g.Func.IsPseudo() {
			continue
		}
		memo.bestSwitch(c, golden, never, rep, target, false, -1, -1, nil)
		tfi := c.TFI(target)
		sw := -1
		for id := range c.Gates {
			if f := c.Gates[id].Func; tfi[id] && id != target && f != cell.OutPort && !f.IsConst() {
				sw = id
				break
			}
		}
		if sw < 0 {
			continue
		}
		for _, changed := range []struct{ gate, copyOf int }{{sw, target}, {target, sw}} {
			res := &sim.Result{N: golden.N, Signals: append([][]uint64(nil), golden.Signals...)}
			res.Signals[changed.gate] = golden.Signals[changed.copyOf]
			differs := func(id int) bool { return id == changed.gate }
			want, _ := referenceBestSwitch(c, res, rep, target)
			if got, _ := memo.bestSwitch(c, res, differs, rep, target, false, -1, -1, nil); !sameChange(got, want) {
				t.Fatalf("target %d, gate %d changed: got %+v, want %+v", target, changed.gate, got, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no target had a wire switch")
	}
}
