package sim

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// xorChain builds a circuit computing parity of nPI inputs.
func xorChain(nPI int) *netlist.Circuit {
	c := netlist.New("parity")
	acc := c.AddInput("i0")
	for i := 1; i < nPI; i++ {
		in := c.AddInput("i")
		acc = c.AddGate(cell.Xor2, acc, in)
	}
	c.AddOutput("p", acc)
	return c
}

func TestTailMask(t *testing.T) {
	if TailMask(64) != ^uint64(0) {
		t.Error("TailMask(64) must be all ones")
	}
	if TailMask(1) != 1 {
		t.Error("TailMask(1) must be 1")
	}
	if TailMask(65) != 1 {
		t.Error("TailMask(65) must be 1")
	}
}

func TestRandomVectorsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := Random(rng, 5, 130)
	if v.Words() != 3 {
		t.Fatalf("Words() = %d, want 3", v.Words())
	}
	if len(v.PerPI) != 5 {
		t.Fatalf("PerPI = %d, want 5", len(v.PerPI))
	}
	for _, s := range v.PerPI {
		if s[2]&^TailMask(130) != 0 {
			t.Error("tail bits beyond N must be zero")
		}
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(9)), 3, 200)
	b := Random(rand.New(rand.NewSource(9)), 3, 200)
	for i := range a.PerPI {
		for w := range a.PerPI[i] {
			if a.PerPI[i][w] != b.PerPI[i][w] {
				t.Fatal("same seed must give identical vectors")
			}
		}
	}
}

func TestExhaustiveCovers(t *testing.T) {
	v, err := Exhaustive(3)
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 8 {
		t.Fatalf("N = %d, want 8", v.N)
	}
	seen := map[int]bool{}
	for k := 0; k < 8; k++ {
		pat := 0
		for i := 0; i < 3; i++ {
			if v.PerPI[i][k/64]>>(k%64)&1 == 1 {
				pat |= 1 << i
			}
		}
		seen[pat] = true
	}
	if len(seen) != 8 {
		t.Errorf("exhaustive vectors cover %d patterns, want 8", len(seen))
	}
}

func TestExhaustiveWidePIPeriod(t *testing.T) {
	v, err := Exhaustive(8) // 256 vectors, PI 7 toggles every 128
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < v.N; k++ {
		want := (k >> 7) & 1
		got := int(v.PerPI[7][k/64] >> (k % 64) & 1)
		if got != want {
			t.Fatalf("PI7 vector %d = %d, want %d", k, got, want)
		}
	}
}

func TestExhaustiveLimit(t *testing.T) {
	if _, err := Exhaustive(21); err == nil {
		t.Error("Exhaustive must reject >20 PIs")
	}
}

func TestRunParityExhaustive(t *testing.T) {
	c := xorChain(4)
	v, err := Exhaustive(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, v)
	if err != nil {
		t.Fatal(err)
	}
	po := POSignals(c, res)[0]
	for k := 0; k < 16; k++ {
		parity := 0
		for i := 0; i < 4; i++ {
			parity ^= k >> i & 1
		}
		got := int(po[0] >> k & 1)
		if got != parity {
			t.Errorf("parity(%04b) = %d, want %d", k, got, parity)
		}
	}
}

func TestRunAllFunctions(t *testing.T) {
	// One gate of every physical function, exhaustively simulated and
	// checked against EvalBool.
	c := netlist.New("all")
	a := c.AddInput("a")
	b := c.AddInput("b")
	s := c.AddInput("s")
	type gateRef struct {
		f  cell.Func
		id int
	}
	var gates []gateRef
	for f := cell.Buf; f < cell.NumFuncs; f++ {
		var id int
		switch f.Arity() {
		case 1:
			id = c.AddGate(f, a)
		case 2:
			id = c.AddGate(f, a, b)
		case 3:
			id = c.AddGate(f, a, b, s)
		}
		c.AddOutput("y", id)
		gates = append(gates, gateRef{f, id})
	}
	// Constants too.
	c.AddOutput("c0", c.Const0())
	c.AddOutput("c1", c.Const1())
	v, err := Exhaustive(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range gates {
		sig := res.Signals[gr.id]
		for k := 0; k < 8; k++ {
			in := []bool{k&1 == 1, k>>1&1 == 1, k>>2&1 == 1}[:gr.f.Arity()]
			want := gr.f.EvalBool(in)
			if got := sig[0]>>k&1 == 1; got != want {
				t.Errorf("%v vector %03b: got %v, want %v", gr.f, k, got, want)
			}
		}
	}
	if CountOnes(res.Signals[c.Const0()]) != 0 {
		t.Error("const0 signal must be all zero")
	}
	if CountOnes(res.Signals[c.Const1()]) != v.N {
		t.Error("const1 signal must be all ones over N vectors")
	}
}

func TestRunRejectsMismatchedPIs(t *testing.T) {
	c := xorChain(4)
	v := Random(rand.New(rand.NewSource(1)), 3, 64)
	if _, err := Run(c, v); err == nil {
		t.Error("Run must reject PI-count mismatch")
	}
}

func TestRunRejectsLoop(t *testing.T) {
	c := netlist.New("loop")
	a := c.AddInput("a")
	g1 := c.AddGate(cell.And2, a, a)
	g2 := c.AddGate(cell.Or2, g1, a)
	c.Gates[g1].Fanin[1] = g2
	c.AddOutput("y", g2)
	v := Random(rand.New(rand.NewSource(1)), 1, 64)
	if _, err := Run(c, v); err == nil {
		t.Error("Run must reject cyclic netlists")
	}
}

func TestCountDiff(t *testing.T) {
	a := []uint64{0b1010, 0}
	b := []uint64{0b0110, 1}
	if got := CountDiff(a, b); got != 3 {
		t.Errorf("CountDiff = %d, want 3", got)
	}
}

func TestOutputValue(t *testing.T) {
	// Two POs: value = po0 + 2*po1. Vector 0: 1,0 -> 1; vector 1: 1,1 -> 3.
	po := [][]uint64{{0b11}, {0b10}}
	if got := OutputValue(po, 0); got != 1 {
		t.Errorf("vector 0 value = %v, want 1", got)
	}
	if got := OutputValue(po, 1); got != 3 {
		t.Errorf("vector 1 value = %v, want 3", got)
	}
}

func TestRunTailMasked(t *testing.T) {
	c := netlist.New("inv")
	a := c.AddInput("a")
	g := c.AddGate(cell.Inv, a)
	c.AddOutput("y", g)
	v := Random(rand.New(rand.NewSource(3)), 1, 70)
	res, err := Run(c, v)
	if err != nil {
		t.Fatal(err)
	}
	if res.Signals[g][1]&^TailMask(70) != 0 {
		t.Error("inverter output must have masked tail bits")
	}
}

func BenchmarkRunParity64k(b *testing.B) {
	c := xorChain(32)
	v := Random(rand.New(rand.NewSource(1)), 32, 65536)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c, v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEvalGateWords drives the gate kernel directly on every function but
// Input, constants included, at N = 64, 65, 130 and 2085 vectors (one
// whole word, a one-bit tail, two words and a two-bit tail, and 32 words
// and a 37-bit tail). The fan-in words are
// random across the whole word, tail bits included. Every bit below N
// must equal EvalBool of its input bits, and every tail bit must be zero.
func TestEvalGateWords(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{64, 65, 130, 2085} {
		words := (n + 63) / 64
		signals := make([][]uint64, 3)
		for p := range signals {
			signals[p] = make([]uint64, words)
			for w := range signals[p] {
				signals[p][w] = rng.Uint64()
			}
		}
		for f := cell.OutPort; f < cell.NumFuncs; f++ {
			g := &netlist.Gate{Func: f, Fanin: []int{0, 1, 2}[:f.Arity()]}
			sig := make([]uint64, words)
			for w := range sig {
				sig[w] = rng.Uint64() // the kernel must overwrite every word
			}
			if err := evalGate(g, signals, sig, TailMask(n)); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 64*words; k++ {
				w, b := k/64, uint(k%64)
				got := sig[w]>>b&1 == 1
				if k >= n {
					if got {
						t.Fatalf("%v, N=%d: tail bit %d set", f, n, k)
					}
					continue
				}
				in := make([]bool, f.Arity())
				for p := range in {
					in[p] = signals[p][w]>>b&1 == 1
				}
				if want := f.EvalBool(in); got != want {
					t.Fatalf("%v, N=%d, vector %d, inputs %v: got %v, want %v", f, n, k, in, got, want)
				}
			}
		}
	}
}
