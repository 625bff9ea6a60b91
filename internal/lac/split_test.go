package lac

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// referenceSearch is the searching action as one interleaved loop, on
// full similarity counts: Targets, then per try a PickTarget draw and its
// selection, then Apply; when Tc is empty, RandomChange's move (a random
// live physical target, selected without a tie-break).
func referenceSearch(c *netlist.Circuit, res *sim.Result, r *sta.Report, rng *rand.Rand, margin float64, tries int) (Change, bool) {
	tc := Targets(c, r, rng, margin)
	best := Change{Similarity: -1}
	for k := 0; k < tries; k++ {
		target := PickTarget(tc, rng)
		if target < 0 {
			break
		}
		if ch, _ := referenceBestSwitch(c, res, r, target); ch.Similarity > best.Similarity {
			best = ch
		}
	}
	if best.Similarity < 0 {
		live := c.Live()
		var phys []int
		for id, g := range c.Gates {
			if live[id] && !g.Func.IsPseudo() {
				phys = append(phys, id)
			}
		}
		if len(phys) == 0 {
			return Change{}, false
		}
		best, _ = referenceBestSwitch(c, res, nil, phys[rng.Intn(len(phys))])
	}
	Apply(c, best)
	return best, true
}

func sameCircuit(a, b *netlist.Circuit) bool {
	if len(a.Gates) != len(b.Gates) {
		return false
	}
	for id, g := range a.Gates {
		h := b.Gates[id]
		if g.Func != h.Func || g.Drive != h.Drive || !slices.Equal(g.Fanin, h.Fanin) {
			return false
		}
	}
	return true
}

// TestSplitSearchMatchesReference checks the split searching action on
// LAC-mutated c880, Cavlc and Max16 candidates at 2048 and 131072
// vectors. Draws (DrawTargets, or RandomTarget when Tc is empty), then
// Select through a memo kept across the candidates, then Apply, must
// match both memo-less SearchN/RandomChange and the interleaved reference
// on twin clones with twin RNGs: the same Change (similarity by bits),
// the same circuit and the same next RNG draw. A margin of -1 empties Tc,
// so the fallback runs; a candidate whose POs all read PIs has no target
// at all.
func TestSplitSearchMatchesReference(t *testing.T) {
	for _, name := range []string{"c880", "Cavlc", "Max16"} {
		for _, n := range []int{2048, 1 << 17} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				base := gen.MustBuild(name)
				base.Const0()
				base.Const1()
				rng := rand.New(rand.NewSource(int64(n) + 3))
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
				cand := base.Clone()
				bare := base.Clone()
				for i, po := range bare.POs {
					bare.SetFanin(po, 0, bare.PIs[i%len(bare.PIs)])
				}
				cands := 6
				if n == 1<<17 {
					cands = 2
				}
				for k := 0; k <= cands; k++ {
					c := cand
					if k == cands {
						c = bare
					}
					res, err := simr.Simulate(c)
					if err != nil {
						t.Fatal(err)
					}
					rep, err := sta.Analyze(c, lib)
					if err != nil {
						t.Fatal(err)
					}
					for _, margin := range []float64{0.1, -1} {
						seed := int64(100*k) + int64(margin*10)
						split, plain, ref := c.Clone(), c.Clone(), c.Clone()
						rs, rp, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))

						r, targets := rep, DrawTargets(split, rep, rs, margin, 4)
						if len(targets) == 0 {
							r = nil
							if tg := RandomTarget(split, rs); tg >= 0 {
								targets = []int{tg}
							}
						}
						got, ok := memo.Select(split, res, simr.SignalDiffers, r, targets)
						if ok {
							Apply(split, got)
						}

						want, wok := SearchN(plain, res, rep, rp, margin, 4)
						if !wok {
							want, wok = RandomChange(plain, res, rp)
						}
						refCh, refOK := referenceSearch(ref, res, rep, rr, margin, 4)

						what := fmt.Sprintf("candidate %d, margin %v", k, margin)
						if ok != wok || ok != refOK || !sameChange(got, want) || !sameChange(got, refCh) {
							t.Fatalf("%s: split %+v %v, SearchN %+v %v, reference %+v %v", what, got, ok, want, wok, refCh, refOK)
						}
						if (k == cands) == ok {
							t.Fatalf("%s: applied %v", what, ok)
						}
						if !sameCircuit(split, plain) || !sameCircuit(split, ref) {
							t.Fatalf("%s: circuits differ", what)
						}
						if a, b, c := rs.Int63(), rp.Int63(), rr.Int63(); a != b || a != c {
							t.Fatalf("%s: next draws %d, %d, %d", what, a, b, c)
						}
					}
					if k < cands {
						if _, ok := memo.RandomChange(cand, res, simr.SignalDiffers, rng); !ok {
							t.Fatalf("candidate %d: no change applied", k)
						}
					}
				}
			})
		}
	}
}

// TestConcurrentMemoMatchesSerial selects every physical target of
// LAC-mutated c880 candidates from four goroutines through one fresh
// memo, each goroutine starting at a different candidate, so they fill
// and replay the same rows at once. Every pick must equal the memo-less
// serial pick. Run it under -race.
func TestConcurrentMemoMatchesSerial(t *testing.T) {
	base := gen.MustBuild("c880")
	base.Const0()
	base.Const1()
	rng := rand.New(rand.NewSource(9))
	v := sim.Random(rng, len(base.PIs), 2048)
	golden, err := sim.Run(base, v)
	if err != nil {
		t.Fatal(err)
	}
	type candidate struct {
		c       *netlist.Circuit
		res     *sim.Result
		differs func(int) bool
		rep     *sta.Report
		want    []Change
	}
	var cands []candidate
	c := base.Clone()
	for k := 0; k < 4; k++ {
		s, err := sim.NewSimulator(base, v, golden)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sta.Analyze(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		cd := candidate{c: c.Clone(), res: res, differs: s.SignalDiffers, rep: rep}
		for target, g := range cd.c.Gates {
			if !g.Func.IsPseudo() {
				ch, _ := (*Memo)(nil).Select(cd.c, res, nil, rep, []int{target})
				cd.want = append(cd.want, ch)
			}
		}
		cands = append(cands, cd)
		RandomChange(c, res, rng)
	}
	memo := NewMemo(golden)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cands {
				cd := cands[(i+w)%len(cands)]
				k := 0
				for target, g := range cd.c.Gates {
					if g.Func.IsPseudo() {
						continue
					}
					got, _ := memo.Select(cd.c, cd.res, cd.differs, cd.rep, []int{target})
					if !sameChange(got, cd.want[k]) {
						errs[w] = fmt.Errorf("goroutine %d, target %d: got %+v, want %+v", w, target, got, cd.want[k])
						return
					}
					k++
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelectKeepsFirstOfEqualPicks gives Select two targets whose best
// changes tie: y = NOT(NAND(a, b)) and z = AND(a, b) each agree with input
// a on 3 of the 4 exhaustive vectors, as closely as anything in their
// fan-in. The pick must be the first target's in draw order.
func TestSelectKeepsFirstOfEqualPicks(t *testing.T) {
	c := netlist.New("tie")
	a, b := c.AddInput("a"), c.AddInput("b")
	y := c.AddGate(cell.Inv, c.AddGate(cell.Nand2, a, b))
	z := c.AddGate(cell.And2, a, b)
	c.AddOutput("y", y)
	c.AddOutput("z", z)
	res, r := simAndTime(t, c)
	for _, targets := range [][]int{{y, z}, {z, y}} {
		got, ok := (*Memo)(nil).Select(c, res, nil, r, targets)
		if !ok || got.Target != targets[0] || got.Similarity != 0.75 {
			t.Fatalf("targets %v: got %+v, %v; want target %d at similarity 0.75", targets, got, ok, targets[0])
		}
	}
}
