package errest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// randomLAC rewires all consumers of a random live physical gate to a
// random TFI member or constant (loop-safe by construction).
func randomLAC(c *netlist.Circuit, rng *rand.Rand) {
	live := c.Live()
	var phys []int
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	if len(phys) == 0 {
		return
	}
	target := phys[rng.Intn(len(phys))]
	tfi := c.TFI(target)
	var cands []int
	for id := range c.Gates {
		if tfi[id] && id != target && !c.Gates[id].Func.IsPseudo() {
			cands = append(cands, id)
		}
	}
	if len(cands) == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			c.ReplaceFanin(target, c.Const0())
		} else {
			c.ReplaceFanin(target, c.Const1())
		}
		return
	}
	c.ReplaceFanin(target, cands[rng.Intn(len(cands))])
}

// metricsEqual requires bit-identical float64s — the incremental path
// promises exactness, not approximation.
func metricsEqual(t *testing.T, what string, a, b Metrics) {
	t.Helper()
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.ER, b.ER) {
		t.Fatalf("%s: ER %v != %v", what, a.ER, b.ER)
	}
	if !same(a.NMED, b.NMED) {
		t.Fatalf("%s: NMED %v != %v", what, a.NMED, b.NMED)
	}
	if len(a.PerPO) != len(b.PerPO) {
		t.Fatalf("%s: PerPO lengths %d != %d", what, len(a.PerPO), len(b.PerPO))
	}
	for i := range a.PerPO {
		if !same(a.PerPO[i], b.PerPO[i]) {
			t.Fatalf("%s: PerPO[%d] %v != %v", what, i, a.PerPO[i], b.PerPO[i])
		}
	}
}

// TestMetricsDeltaMatchesFull asserts bit-identical ER/NMED/PerPO between
// the touched-PO incremental scan and the full scan, across randomized
// LAC sets, with both an exact touched oracle (the incremental simulator)
// and a maximally conservative one (everything touched). The vector count
// is deliberately not a multiple of 64 to cover the tail mask.
func TestMetricsDeltaMatchesFull(t *testing.T) {
	for _, n := range []int{64, 100, 1000} {
		base := adder2().Clone()
		base.Const0()
		base.Const1()
		rng := rand.New(rand.NewSource(int64(n)))
		v := sim.Random(rng, len(base.PIs), n)
		est, err := New(base, v)
		if err != nil {
			t.Fatal(err)
		}
		simr, err := sim.NewSimulator(base, v, est.GoldenResult())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			cand := base.Clone()
			for k := rng.Intn(3) + 1; k > 0; k-- {
				randomLAC(cand, rng)
			}
			full, _, err := est.Evaluate(cand)
			if err != nil {
				t.Fatal(err)
			}
			res, err := simr.Simulate(cand)
			if err != nil {
				t.Fatal(err)
			}
			delta, err := est.MetricsDelta(cand, res, simr.SignalDiffers)
			if err != nil {
				t.Fatal(err)
			}
			metricsEqual(t, "exact oracle", delta, full)
			conservative, err := est.MetricsDelta(cand, res, func(int) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			metricsEqual(t, "all-touched oracle", conservative, full)
		}
	}
}

// TestMetricsDeltaUntouched asserts the zero-cost path: a candidate whose
// cone diff reaches no PO must produce exactly zero error.
func TestMetricsDeltaUntouched(t *testing.T) {
	base := adder2().Clone()
	base.Const0()
	base.Const1()
	v := sim.Random(rand.New(rand.NewSource(1)), len(base.PIs), 256)
	est, err := New(base, v)
	if err != nil {
		t.Fatal(err)
	}
	simr, err := sim.NewSimulator(base, v, est.GoldenResult())
	if err != nil {
		t.Fatal(err)
	}
	cand := base.Clone() // identical candidate
	res, err := simr.Simulate(cand)
	if err != nil {
		t.Fatal(err)
	}
	m, err := est.MetricsDelta(cand, res, simr.SignalDiffers)
	if err != nil {
		t.Fatal(err)
	}
	if m.ER != 0 || m.NMED != 0 {
		t.Fatalf("identity candidate must have zero error, got ER=%v NMED=%v", m.ER, m.NMED)
	}
	for i, p := range m.PerPO {
		if p != 0 {
			t.Fatalf("PerPO[%d] = %v, want 0", i, p)
		}
	}
}
