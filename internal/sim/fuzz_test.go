package sim_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
)

// fuzzSimCircuits are the gen circuits FuzzIncrementalSim draws from
// (FuzzSelect's family).
var fuzzSimCircuits = []string{"c880", "Cavlc", "Max16", "Adder16", "Int2float", "c1908"}

// FuzzIncrementalSim is the differential oracle of the incremental
// engine: circuit picks one of fuzzSimCircuits, seed and lacs a random
// LAC sequence (up to 15 moves) and the input sample, vectors a sample
// size from 64 to 4096 (mostly with a partial last word). Then one
// simulator serves the candidate in the order ops gives, five bytes per
// step: the first byte's low two bits pick Simulate, IncrementalRun with
// the candidate's diff, SimulateWithin the TFI of one or two roots (the
// next two byte pairs; the first byte's bit 2 adds the second) or one
// more LAC. After every run, each gate it covers must carry sim.Run's
// waveform and report SignalDiffers exactly where that differs from the
// golden one; a base gate SimulateWithin leaves out must carry the golden
// waveform and report no difference. A last Simulate must be exact on
// every gate, so no restricted run leaves stale state behind.
func FuzzIncrementalSim(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(3), uint16(2048-64), []byte{2, 0, 17, 1, 3, 0, 0, 0, 0, 0, 6, 1, 5, 0, 200, 1, 0, 0, 0, 0})
	f.Add(uint8(2), int64(7), uint8(9), uint16(1000), []byte{3, 0, 0, 0, 0, 6, 0, 90, 0, 91, 2, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(4), int64(3), uint8(15), uint16(0), []byte{6, 1, 44, 0, 3, 2, 0, 255, 0, 0, 3, 0, 0, 0, 0, 2, 0, 255, 0, 0})
	f.Fuzz(func(t *testing.T, circuit uint8, seed int64, lacs uint8, vectors uint16, ops []byte) {
		base := gen.MustBuild(fuzzSimCircuits[int(circuit)%len(fuzzSimCircuits)])
		base.Const0()
		base.Const1()
		rng := rand.New(rand.NewSource(seed))
		v := sim.Random(rng, len(base.PIs), 64+int(vectors)%4033)
		golden, err := sim.Run(base, v)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.NewSimulator(base, v, golden)
		if err != nil {
			t.Fatal(err)
		}
		cand := base.Clone()
		for k := int(lacs) % 16; k > 0; k-- {
			randomLAC(cand, rng)
		}
		want, err := sim.Run(cand, v)
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, res *sim.Result, within []bool) {
			t.Helper()
			for id := range cand.Gates {
				if within != nil && !within[id] {
					if !slices.Equal(res.Signals[id], golden.Signals[id]) || s.SignalDiffers(id) {
						t.Fatalf("%s: gate %d outside the set is not golden", what, id)
					}
					continue
				}
				if !slices.Equal(res.Signals[id], want.Signals[id]) {
					t.Fatalf("%s: gate %d differs from a full run", what, id)
				}
				if differs := !slices.Equal(want.Signals[id], golden.Signals[id]); s.SignalDiffers(id) != differs {
					t.Fatalf("%s: gate %d: SignalDiffers %v, waveform differs %v", what, id, s.SignalDiffers(id), differs)
				}
			}
		}
		root := func(hi, lo byte) int { return (int(hi)<<8 | int(lo)) % len(cand.Gates) }
		for i := 0; i+4 < len(ops) && i < 5*12; i += 5 {
			var res *sim.Result
			var within []bool
			switch op := ops[i]; op & 3 {
			case 0:
				res, err = s.Simulate(cand)
			case 1:
				res, err = s.IncrementalRun(cand, cand.DiffGates(base))
			case 2:
				roots := []int{root(ops[i+1], ops[i+2])}
				if op&4 != 0 {
					roots = append(roots, root(ops[i+3], ops[i+4]))
				}
				within = cand.TFI(roots...)
				res, err = s.SimulateWithin(cand, within)
			default:
				if randomLAC(cand, rng) >= 0 {
					if want, err = sim.Run(cand, v); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("step %d", i/5), res, within)
		}
		res, err := s.Simulate(cand)
		if err != nil {
			t.Fatal(err)
		}
		check("final Simulate", res, nil)
	})
}
