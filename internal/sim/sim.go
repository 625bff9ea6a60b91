// Package sim implements 64-way bit-parallel logic simulation of netlist
// circuits. It is the Monte-Carlo engine underneath VECBEE-style error and
// similarity estimation (package errest): one Run evaluates every gate of
// the circuit on a shared sample of input vectors, packing 64 vectors per
// machine word.
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Vectors is a set of sampled primary-input assignments in bit-parallel
// form: PI i's values across all vectors live in PerPI[i], 64 vectors per
// uint64 word. Bits beyond N in the last word are zero.
type Vectors struct {
	// PerPI holds one word-slice per primary input, in PI port order.
	PerPI [][]uint64
	// N is the number of vectors represented.
	N int
}

// Words returns the number of uint64 words per signal.
func (v *Vectors) Words() int { return (v.N + 63) / 64 }

// TailMask returns the valid-bit mask of the final word.
func TailMask(n int) uint64 {
	if r := n % 64; r != 0 {
		return (uint64(1) << r) - 1
	}
	return ^uint64(0)
}

// Random samples n uniform input vectors for a circuit with nPI inputs,
// matching the paper's uniform input distribution (pi = 2^-m). The rng
// makes sampling deterministic and reproducible.
func Random(rng *rand.Rand, nPI, n int) *Vectors {
	words := (n + 63) / 64
	v := &Vectors{PerPI: make([][]uint64, nPI), N: n}
	mask := TailMask(n)
	for i := range v.PerPI {
		s := make([]uint64, words)
		for w := range s {
			s[w] = rng.Uint64()
		}
		if words > 0 {
			s[words-1] &= mask
		}
		v.PerPI[i] = s
	}
	return v
}

// Exhaustive enumerates all 2^nPI input vectors (nPI ≤ 20). Vector k
// assigns bit i of k to PI i, so error rates computed on it are exact.
func Exhaustive(nPI int) (*Vectors, error) {
	if nPI > 20 {
		return nil, fmt.Errorf("sim: exhaustive simulation limited to 20 PIs, got %d", nPI)
	}
	n := 1 << nPI
	words := (n + 63) / 64
	tail := TailMask(n)
	v := &Vectors{PerPI: make([][]uint64, nPI), N: n}
	for i := 0; i < nPI; i++ {
		s := make([]uint64, words)
		period := 1 << i // PI i toggles every 2^i vectors
		if period >= 64 {
			// Whole words alternate between all-0 and all-1.
			for w := 0; w < words; w++ {
				if (w/(period/64))%2 == 1 {
					s[w] = ^uint64(0)
				}
			}
		} else {
			var pattern uint64
			for b := 0; b < 64; b++ {
				if (b/period)%2 == 1 {
					pattern |= uint64(1) << b
				}
			}
			for w := range s {
				s[w] = pattern
			}
		}
		s[words-1] &= tail
		v.PerPI[i] = s
	}
	return v, nil
}

// Result holds the simulated waveform of every gate of a circuit: Signals
// is indexed by gate ID, each signal being Words() uint64 words.
type Result struct {
	Signals [][]uint64
	N       int
}

// Words returns the number of words per signal.
func (r *Result) Words() int { return (r.N + 63) / 64 }

// Run simulates the circuit on the given vectors and returns per-gate
// signals. It fails if the vector PI count mismatches the circuit or the
// netlist contains a loop.
func Run(c *netlist.Circuit, v *Vectors) (*Result, error) {
	if len(v.PerPI) != len(c.PIs) {
		return nil, fmt.Errorf("sim: circuit %q has %d PIs, vectors have %d", c.Name, len(c.PIs), len(v.PerPI))
	}
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	words := v.Words()
	res := &Result{Signals: make([][]uint64, len(c.Gates)), N: v.N}
	for i, pi := range c.PIs {
		res.Signals[pi] = v.PerPI[i]
	}
	tail := TailMask(v.N)
	for _, id := range order {
		g := &c.Gates[id]
		if g.Func == cell.Input {
			continue
		}
		sig := make([]uint64, words)
		if err := evalGate(g, res.Signals, sig, tail); err != nil {
			return nil, fmt.Errorf("sim: gate %d: %w", id, err)
		}
		res.Signals[id] = sig
	}
	return res, nil
}

// evalGate computes one gate's bit-parallel waveform into sig (len = words
// per signal), reading fan-in waveforms from signals and applying the tail
// mask. It is the shared kernel of Run and Simulator. Each case reslices
// the inputs it reads to len(sig) before its loop, so the loop indexes
// them without bounds checks.
func evalGate(g *netlist.Gate, signals [][]uint64, sig []uint64, tail uint64) error {
	var in [3][]uint64
	for p, fi := range g.Fanin {
		in[p] = signals[fi]
	}
	n := len(sig)
	switch g.Func {
	case cell.Const0:
		for w := range sig {
			sig[w] = 0
		}
	case cell.Const1:
		for w := range sig {
			sig[w] = ^uint64(0)
		}
	case cell.OutPort, cell.Buf:
		copy(sig, in[0])
	case cell.Inv:
		a := in[0][:n]
		for w := range sig {
			sig[w] = ^a[w]
		}
	case cell.And2:
		a, b := in[0][:n], in[1][:n]
		for w := range sig {
			sig[w] = a[w] & b[w]
		}
	case cell.Nand2:
		a, b := in[0][:n], in[1][:n]
		for w := range sig {
			sig[w] = ^(a[w] & b[w])
		}
	case cell.Or2:
		a, b := in[0][:n], in[1][:n]
		for w := range sig {
			sig[w] = a[w] | b[w]
		}
	case cell.Nor2:
		a, b := in[0][:n], in[1][:n]
		for w := range sig {
			sig[w] = ^(a[w] | b[w])
		}
	case cell.Xor2:
		a, b := in[0][:n], in[1][:n]
		for w := range sig {
			sig[w] = a[w] ^ b[w]
		}
	case cell.Xnor2:
		a, b := in[0][:n], in[1][:n]
		for w := range sig {
			sig[w] = ^(a[w] ^ b[w])
		}
	case cell.Mux2:
		a, b, s := in[0][:n], in[1][:n], in[2][:n]
		for w := range sig {
			sig[w] = (a[w] &^ s[w]) | (b[w] & s[w])
		}
	case cell.Aoi21:
		a, b, c := in[0][:n], in[1][:n], in[2][:n]
		for w := range sig {
			sig[w] = ^((a[w] & b[w]) | c[w])
		}
	case cell.Oai21:
		a, b, c := in[0][:n], in[1][:n], in[2][:n]
		for w := range sig {
			sig[w] = ^((a[w] | b[w]) & c[w])
		}
	case cell.Maj3:
		a, b, c := in[0][:n], in[1][:n], in[2][:n]
		for w := range sig {
			sig[w] = (a[w] & b[w]) | (b[w] & c[w]) | (a[w] & c[w])
		}
	default:
		return fmt.Errorf("unsupported function %v", g.Func)
	}
	if n > 0 {
		sig[n-1] &= tail
	}
	return nil
}

// POSignals returns the PO waveforms of a result in PO port order.
func POSignals(c *netlist.Circuit, r *Result) [][]uint64 {
	out := make([][]uint64, len(c.POs))
	for i, po := range c.POs {
		out[i] = r.Signals[po]
	}
	return out
}

// CountDiff returns the number of vectors on which the two signals differ.
// Signals are tail-masked by Run, so no extra masking is needed.
func CountDiff(a, b []uint64) int {
	d := 0
	for w := range a {
		d += bits.OnesCount64(a[w] ^ b[w])
	}
	return d
}

// CountOnes returns the number of vectors on which the signal is 1.
func CountOnes(a []uint64) int {
	d := 0
	for _, w := range a {
		d += bits.OnesCount64(w)
	}
	return d
}

// OutputValue decodes PO signals into the unsigned integer value of vector
// k, treating PO i as bit i (LSB-first), accumulated in float64. Exact for
// ≤53 output bits; for wider buses the relative rounding error is ≤2^-52,
// far below the Monte-Carlo noise floor of the estimators built on it.
func OutputValue(po [][]uint64, k int) float64 {
	w, b := k/64, uint(k%64)
	val, scale := 0.0, 1.0
	for i := range po {
		if po[i][w]>>b&1 == 1 {
			val += scale
		}
		scale *= 2
	}
	return val
}
