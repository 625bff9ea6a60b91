package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// applyRandomLAC mimics one local approximate change without importing
// package lac (which would not cycle, but keeping the dependency direction
// clean is nicer): rewire all consumers of a random live physical gate to
// a random member of its transitive fan-in or to a constant. Switches from
// TFI ∪ constants can never create a loop, exactly like real LACs.
func applyRandomLAC(t *testing.T, c *netlist.Circuit, rng *rand.Rand) int {
	t.Helper()
	live := c.Live()
	var phys []int
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	if len(phys) == 0 {
		t.Fatal("no physical gates to approximate")
	}
	target := phys[rng.Intn(len(phys))]
	tfi := c.TFI(target)
	var cands []int
	for id := range c.Gates {
		if tfi[id] && id != target && c.Gates[id].Func != cell.OutPort {
			cands = append(cands, id)
		}
	}
	var sw int
	switch rng.Intn(3) {
	case 0:
		sw = c.Const0()
	case 1:
		sw = c.Const1()
	default:
		if len(cands) == 0 {
			sw = c.Const0()
		} else {
			sw = cands[rng.Intn(len(cands))]
		}
	}
	c.ReplaceFanin(target, sw)
	return target
}

func freshBase(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	var c *netlist.Circuit
	if name == "Adder4" {
		c = gen.Adder(4) // small enough for exhaustive vectors
	} else {
		c = gen.MustBuild(name)
	}
	base := c.Clone()
	base.Const0()
	base.Const1()
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestIncrementalMatchesFull is the exactness property test of the
// incremental engine: across randomized LAC sets, every per-gate waveform
// of IncrementalRun must be bit-identical to a from-scratch Run — on
// random vectors with a non-64-divisible count (tail-mask edge case), on
// word-aligned samples, and on exhaustive vectors.
func TestIncrementalMatchesFull(t *testing.T) {
	cases := []struct {
		circuit string
		vectors int // ≤ 0 selects exhaustive enumeration
		trials  int
		maxLACs int
	}{
		{"c880", 1000, 20, 4}, // 1000 % 64 != 0: exercises the tail mask
		{"c880", 2048, 10, 4},
		{"Adder16", 100, 20, 4},
		{"Adder16", 4096, 10, 6},
		{"Adder4", -1, 20, 3}, // exhaustive: 256 vectors, exact error rates
	}
	for _, tc := range cases {
		base := freshBase(t, tc.circuit)
		rng := rand.New(rand.NewSource(7))
		var v *sim.Vectors
		if tc.vectors <= 0 {
			var err error
			v, err = sim.Exhaustive(len(base.PIs))
			if err != nil {
				t.Fatal(err)
			}
		} else {
			v = sim.Random(rng, len(base.PIs), tc.vectors)
		}
		s, err := sim.NewSimulator(base, v, nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < tc.trials; trial++ {
			cand := base.Clone()
			for k := rng.Intn(tc.maxLACs) + 1; k > 0; k-- {
				applyRandomLAC(t, cand, rng)
			}
			full, err := sim.Run(cand, v)
			if err != nil {
				t.Fatal(err)
			}
			incr, err := s.Simulate(cand)
			if err != nil {
				t.Fatal(err)
			}
			for id := range cand.Gates {
				fs, is := full.Signals[id], incr.Signals[id]
				if len(fs) != len(is) {
					t.Fatalf("%s trial %d gate %d: word count %d != %d",
						tc.circuit, trial, id, len(is), len(fs))
				}
				for w := range fs {
					if fs[w] != is[w] {
						t.Fatalf("%s (n=%d) trial %d gate %d word %d: incremental %x != full %x",
							tc.circuit, v.N, trial, id, w, is[w], fs[w])
					}
				}
				// In the shared-ID-space path the touched flag is exact:
				// untouched gates share the golden waveform verbatim.
				if !s.SignalDiffers(id) {
					gold := s.Golden().Signals[id]
					for w := range fs {
						if fs[w] != gold[w] {
							t.Fatalf("%s trial %d gate %d: reported untouched but differs from golden",
								tc.circuit, trial, id)
						}
					}
				}
			}
		}
	}
}

// TestIncrementalIdentityCandidate checks the degenerate diff: a candidate
// identical to the base must come back as the golden waveforms with no
// gate reported touched.
func TestIncrementalIdentityCandidate(t *testing.T) {
	base := freshBase(t, "Adder16")
	v := sim.Random(rand.New(rand.NewSource(3)), len(base.PIs), 777)
	s, err := sim.NewSimulator(base, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Simulate(base.Clone())
	if err != nil {
		t.Fatal(err)
	}
	for id := range base.Gates {
		if s.SignalDiffers(id) {
			t.Fatalf("gate %d reported touched on an identical candidate", id)
		}
		for w := range res.Signals[id] {
			if res.Signals[id][w] != s.Golden().Signals[id][w] {
				t.Fatalf("gate %d: identity candidate signal differs from golden", id)
			}
		}
	}
}

// invertedWire applies a greedy inverted-wire substitution to c: it
// rewires every consumer of target through a fresh inverter of sw and
// returns the inverter's ID.
func invertedWire(c *netlist.Circuit, target, sw int) int {
	inv := c.AddGate(cell.Inv, sw)
	c.ReplaceFanin(target, inv)
	return inv
}

// checkAgainstRun requires every signal of an IncrementalRun of cand to
// equal a full Run and SignalDiffers to hold exactly on the gates whose
// waveform differs from the simulator's reference, and on every gate
// appended beyond it.
func checkAgainstRun(t *testing.T, what string, s *sim.Simulator, ref, cand *netlist.Circuit, v *sim.Vectors) {
	t.Helper()
	full, err := sim.Run(cand, v)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := s.Simulate(cand)
	if err != nil {
		t.Fatal(err)
	}
	for id := range cand.Gates {
		if !slices.Equal(full.Signals[id], incr.Signals[id]) {
			t.Fatalf("%s: gate %d: incremental signal differs from a full run", what, id)
		}
		differs := id >= len(ref.Gates) || !slices.Equal(full.Signals[id], s.Golden().Signals[id])
		if s.SignalDiffers(id) != differs {
			t.Fatalf("%s: gate %d: SignalDiffers = %v, waveform differs = %v", what, id, s.SignalDiffers(id), differs)
		}
	}
}

// TestIncrementalAppendedInverter runs the greedy baselines' inverted
// wire incrementally: the candidate appends one inverter whose switch
// lies in the target's fan-in cone, ahead of every rewired consumer. The
// simulator's reference is itself a grown circuit, as a greedy round's
// parent is: c880 and Adder16 after LACs that include inverted wires.
// The cases take a primary input as the switch, a target that a PO port
// reads, and random targets and switches.
func TestIncrementalAppendedInverter(t *testing.T) {
	for _, name := range []string{"c880", "Adder16"} {
		base := freshBase(t, name)
		rng := rand.New(rand.NewSource(13))
		v := sim.Random(rng, len(base.PIs), 1000)
		for k := 0; k < 3; k++ {
			target := applyRandomLAC(t, base, rng)
			invertedWire(base, base.Gates[target].Fanin[0], base.PIs[rng.Intn(len(base.PIs))])
		}
		golden, err := sim.Run(base, v)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.NewSimulator(base, v, golden)
		if err != nil {
			t.Fatal(err)
		}
		live := base.Live()
		var phys, poDrivers []int
		for id, g := range base.Gates {
			if live[id] && !g.Func.IsPseudo() {
				phys = append(phys, id)
			}
		}
		for _, po := range base.POs {
			if d := base.Gates[po].Fanin[0]; !base.Gates[d].Func.IsPseudo() {
				poDrivers = append(poDrivers, d)
			}
		}
		for trial := 0; trial < 40; trial++ {
			target := phys[rng.Intn(len(phys))]
			if trial%4 == 1 {
				target = poDrivers[rng.Intn(len(poDrivers))]
			}
			tfi := base.TFI(target)
			var pis, sws []int
			for id, g := range base.Gates {
				switch {
				case !tfi[id] || id == target || g.Func.IsConst():
				case g.Func == cell.Input:
					pis = append(pis, id)
				default:
					sws = append(sws, id)
				}
			}
			if trial%4 == 0 && len(pis) > 0 || len(sws) == 0 {
				sws = pis
			}
			if len(sws) == 0 {
				continue // the target reads constants only
			}
			sw := sws[rng.Intn(len(sws))]
			cand := base.Clone()
			invertedWire(cand, target, sw)
			checkAgainstRun(t, fmt.Sprintf("%s trial %d: target %d switch %d", name, trial, target, sw), s, base, cand, v)
		}
	}
}

// TestIncrementalFallbackAppendedGate covers appended gates outside the
// incremental rule — an appended gate reading a changed gate, and two
// chained appended gates: the simulator must fall back to a full run with
// identical results and report every gate touched.
func TestIncrementalFallbackAppendedGate(t *testing.T) {
	base := freshBase(t, "c880")
	v := sim.Random(rand.New(rand.NewSource(11)), len(base.PIs), 500)
	s, err := sim.NewSimulator(base, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	target := -1
	for id, g := range base.Gates {
		if !g.Func.IsPseudo() {
			target = id
		}
	}
	readsChanged := base.Clone()
	consumer := readsChanged.Fanouts()[target][0]
	readsChanged.ReplaceFanin(target, readsChanged.Const0())
	readsChanged.AddGate(cell.Inv, consumer)
	chained := base.Clone()
	inv := chained.AddGate(cell.Inv, chained.Gates[target].Fanin[0])
	invertedWire(chained, target, inv)
	for name, cand := range map[string]*netlist.Circuit{"reads a changed gate": readsChanged, "chained": chained} {
		full, err := sim.Run(cand, v)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := s.Simulate(cand)
		if err != nil {
			t.Fatal(err)
		}
		for id := range cand.Gates {
			if !slices.Equal(full.Signals[id], incr.Signals[id]) {
				t.Fatalf("%s: gate %d: fallback result differs from a full run", name, id)
			}
			if !s.SignalDiffers(id) {
				t.Fatalf("%s: gate %d: a full-run fallback must report every gate touched", name, id)
			}
		}
	}
}

// TestSimulatorReuseAcrossCandidates drives one Simulator through many
// candidates, interleaving identity and heavily-mutated ones, to verify
// the recycled arena and dirty-tracking reset leave no state behind.
func TestSimulatorReuseAcrossCandidates(t *testing.T) {
	base := freshBase(t, "Adder16")
	rng := rand.New(rand.NewSource(5))
	v := sim.Random(rng, len(base.PIs), 320)
	s, err := sim.NewSimulator(base, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		cand := base.Clone()
		if trial%3 != 0 {
			for k := 0; k < trial%5+1; k++ {
				applyRandomLAC(t, cand, rng)
			}
		}
		full, err := sim.Run(cand, v)
		if err != nil {
			t.Fatal(err)
		}
		incr, err := s.Simulate(cand)
		if err != nil {
			t.Fatal(err)
		}
		for id := range cand.Gates {
			for w := range full.Signals[id] {
				if full.Signals[id][w] != incr.Signals[id][w] {
					t.Fatalf("trial %d gate %d: stale simulator state", trial, id)
				}
			}
		}
	}
}
