package errest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// checkDistancePaths compares every path built on the error-distance
// kernel with the plain transposed scan on one simulated candidate:
// MetricsDelta under the given touched oracle and, where ComposeOK holds,
// ExtractPODelta plus ComposeMetrics over the touched POs split into
// disjoint units (units[j] lists the PO port indices of unit j). An
// ER-only estimator must match the scan's ER and PerPO and report NMED 0.
func checkDistancePaths(t *testing.T, what string, e *Estimator, app *netlist.Circuit, res *sim.Result, touched func(int) bool, units [][]int) {
	t.Helper()
	want, err := e.MetricsFromResult(app, res)
	if err != nil {
		t.Fatal(err)
	}
	if e.erOnly {
		want.NMED = 0
	}
	got, err := e.MetricsDelta(app, res, touched)
	if err != nil {
		t.Fatal(err)
	}
	metricsEqual(t, what+": MetricsDelta", got, want)
	if !e.ComposeOK() {
		return
	}
	deltas := make([]*PODelta, len(units))
	for j, unit := range units {
		inUnit := map[int]bool{}
		for _, i := range unit {
			inUnit[app.POs[i]] = true
		}
		if deltas[j], err = e.ExtractPODelta(app, res, func(id int) bool { return inUnit[id] }); err != nil {
			t.Fatal(err)
		}
	}
	metricsEqual(t, what+": ComposeMetrics", ComposeMetrics(e, deltas), want)
}

// splitPOs deals the PO port indices that touched reports into k disjoint
// units at random.
func splitPOs(app *netlist.Circuit, touched func(int) bool, k int, rng *rand.Rand) [][]int {
	units := make([][]int, k)
	for i, po := range app.POs {
		if touched(po) {
			u := rng.Intn(k)
			units[u] = append(units[u], i)
		}
	}
	return units
}

// TestErrorDistanceMatchesScan runs the kernel's three callers on
// LAC-mutated candidates of four circuits — Max16 and Adder16 (NMED
// circuits whose errors reach the top output bits), c880 and the 32-PO
// multiplier c6288 — at 2048 vectors, at 1000 (a partial last word) and
// at the paper's 131072. The simulator's exact oracle and an all-touched
// one drive MetricsDelta; the touched POs are split into one to three
// disjoint units for composition. ER, NMED and PerPO must equal the plain
// scan's bit for bit.
func TestErrorDistanceMatchesScan(t *testing.T) {
	for _, name := range []string{"Max16", "Adder16", "c880", "c6288"} {
		for _, n := range []int{2048, 1000, 1 << 17} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) { checkLACCandidates(t, name, n, false) })
		}
	}
}

// TestERModeMatchesScan runs the same callers on ER-only estimators: the
// four circuits above plus c5315 (57 POs), Max (128) and Adder (129),
// whose touched POs ER-only MetricsDelta scans although they are wider
// than 53. ER and every PerPO must equal the plain scan's bit for bit,
// and NMED must be 0.
func TestERModeMatchesScan(t *testing.T) {
	for _, name := range []string{"c880", "Max16", "Adder16", "c6288", "c5315", "Max", "Adder"} {
		for _, n := range []int{2048, 1000, 1 << 17} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) { checkLACCandidates(t, name, n, true) })
		}
	}
}

// checkLACCandidates accumulates random LACs on the named circuit at n
// vectors until enough candidates differ from it, checking every caller
// of the kernel on each with an estimator in the given mode.
func checkLACCandidates(t *testing.T, name string, n int, erOnly bool) {
	base := gen.MustBuild(name)
	base.Const0()
	base.Const1()
	rng := rand.New(rand.NewSource(int64(n) + int64(len(name))))
	est, err := New(base, sim.Random(rng, len(base.PIs), n))
	if err != nil {
		t.Fatal(err)
	}
	if erOnly {
		est.SetEROnly()
	}
	simr, err := sim.NewSimulator(base, est.Vectors(), est.GoldenResult())
	if err != nil {
		t.Fatal(err)
	}
	candidates := 8
	if n == 1<<17 {
		candidates = 3
	}
	cand := base.Clone()
	differing := 0
	for lacs := 1; differing < candidates; lacs++ {
		if lacs > 80 {
			t.Fatalf("only %d of %d candidates differed: the kernel was barely exercised", differing, lacs-1)
		}
		randomLAC(cand, rng)
		res, err := simr.Simulate(cand)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("after %d LACs", lacs)
		units := splitPOs(cand, simr.SignalDiffers, 1+rng.Intn(3), rng)
		checkDistancePaths(t, what, est, cand, res, simr.SignalDiffers, units)
		all := func(int) bool { return true }
		checkDistancePaths(t, what+", all touched", est, cand, res, all, splitPOs(cand, all, 1+rng.Intn(3), rng))
		for _, u := range units {
			if len(u) > 0 {
				differing++
				break
			}
		}
	}
}

// FuzzErrorDistance drives the kernel's callers with random waveforms of
// 1–53 POs at 1–2000 vectors, so nPO/N pairs fall on both sides of
// ComposeOK (beyond it MetricsDelta keeps its per-vector float sum, and
// composition is not checked). Each PO's golden waveform has its own
// density; a random subset of POs is touched, and each touched PO flips
// bits at a fuzzed density, from none to most. The touched POs are split
// into 1–3 disjoint units for ExtractPODelta and ComposeMetrics. An odd
// mode puts the estimator in ER-only mode and allows up to 200 POs. The
// seed corpus under testdata/fuzz/FuzzErrorDistance covers one PO, one
// vector, 53 POs, and pairs just inside and just outside ComposeOK, and
// in ER-only mode one PO, 53, 57 and 200 POs.
func FuzzErrorDistance(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, pos uint8, vectors uint16, density uint8, units uint8, mode uint8) {
		erOnly := mode&1 == 1
		nPO := int(pos)%53 + 1
		if erOnly {
			nPO = int(pos)%200 + 1
		}
		n := int(vectors)%2000 + 1
		rng := rand.New(rand.NewSource(seed))
		c := identityCircuit(nPO)
		tail := sim.TailMask(n)
		words := (n + 63) / 64
		v := &sim.Vectors{N: n, PerPI: make([][]uint64, nPO)}
		for i := range v.PerPI {
			sparsity := rng.Intn(5) // a bit is set with probability 2^-(sparsity+1)
			v.PerPI[i] = make([]uint64, words)
			for w := range v.PerPI[i] {
				x := rng.Uint64()
				for k := 0; k < sparsity; k++ {
					x &= rng.Uint64()
				}
				v.PerPI[i][w] = x
			}
			v.PerPI[i][words-1] &= tail
		}
		est, err := New(c, v)
		if err != nil {
			t.Fatal(err)
		}
		if erOnly {
			est.SetEROnly()
		}
		res := &sim.Result{N: n, Signals: make([][]uint64, len(c.Gates))}
		touchedPO := map[int]bool{}
		for i, po := range c.POs {
			sig := append([]uint64(nil), est.goldenPO[i]...)
			if rng.Intn(2) == 0 {
				touchedPO[po] = true
				for w := range sig {
					if rng.Intn(256) < int(density) {
						sig[w] ^= rng.Uint64() & rng.Uint64()
					}
				}
				sig[words-1] &= tail
			}
			res.Signals[po] = sig
		}
		touched := func(id int) bool { return touchedPO[id] }
		what := fmt.Sprintf("%d POs, %d vectors, ComposeOK %v, ER-only %v", nPO, n, est.ComposeOK(), erOnly)
		checkDistancePaths(t, what, est, c, res, touched, splitPOs(c, touched, int(units)%3+1, rng))
	})
}
