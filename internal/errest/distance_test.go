package errest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// checkDistancePaths compares MetricsDelta, the error-distance kernel's
// caller, under the given touched oracle and with scratch sc, with the
// plain transposed scan on one simulated candidate. An ER-only estimator
// must match the scan's ER and PerPO and report NMED 0.
func checkDistancePaths(t *testing.T, what string, e *Estimator, app *netlist.Circuit, res *sim.Result, touched func(int) bool, sc *Scratch) {
	t.Helper()
	want, err := e.MetricsFromResult(app, res)
	if err != nil {
		t.Fatal(err)
	}
	if e.erOnly {
		want.NMED = 0
	}
	got, err := e.MetricsDelta(app, res, touched, sc)
	if err != nil {
		t.Fatal(err)
	}
	metricsEqual(t, what+": MetricsDelta", got, want)
}

// TestErrorDistanceMatchesScan runs the kernel's caller on LAC-mutated
// candidates of four circuits — Max16 and Adder16 (NMED circuits whose
// errors reach the top output bits), c880 and the 32-PO multiplier c6288
// — at 2048 vectors, at 1000 (a partial last word) and at the paper's
// 131072. The simulator's exact oracle and an all-touched one drive
// MetricsDelta. ER, NMED and PerPO must equal the plain scan's bit for
// bit. Max (128 POs) checks that a wide NMED estimator keeps the full
// scan.
func TestErrorDistanceMatchesScan(t *testing.T) {
	for _, name := range []string{"Max16", "Adder16", "c880", "c6288", "Max"} {
		for _, n := range []int{2048, 1000, 1 << 17} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) { checkLACCandidates(t, name, n, false) })
		}
	}
}

// TestERModeMatchesScan runs the same caller on ER-only estimators: the
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
// vectors until enough candidates differ from it, checking the kernel's
// caller on each with an estimator in the given mode. One scratch serves
// every call, as an evaluation arena's does.
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
	sc := new(Scratch)
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
		checkDistancePaths(t, what, est, cand, res, simr.SignalDiffers, sc)
		checkDistancePaths(t, what+", all touched", est, cand, res, func(int) bool { return true }, sc)
		for _, po := range cand.POs {
			if simr.SignalDiffers(po) {
				differing++
				break
			}
		}
	}
}

// FuzzErrorDistance drives the kernel's caller with random waveforms of
// 1–53 POs at 1–2000 vectors, so nPO/N pairs fall on both sides of
// N·(2^nPO − 1) < 2^53 (beyond it MetricsDelta keeps its per-vector
// float sum). Each PO's golden waveform has its own density; a random
// subset of POs is touched, and each touched PO flips bits at a fuzzed
// density, from none to most. The fifth argument is unused; it keeps the
// committed corpus loading. An odd mode puts the estimator in ER-only
// mode and allows up to 200 POs. The seed corpus under
// testdata/fuzz/FuzzErrorDistance covers one PO, one vector, 53 POs, and
// pairs just inside and just outside the exact-sum bound, and in ER-only
// mode one PO, 53, 57 and 200 POs.
func FuzzErrorDistance(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, pos uint8, vectors uint16, density uint8, _ uint8, mode uint8) {
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
		what := fmt.Sprintf("%d POs, %d vectors, ER-only %v", nPO, n, erOnly)
		checkDistancePaths(t, what, est, c, res, touched, new(Scratch))
	})
}

// TestScratchReuseAcrossCandidates sends one scratch through back-to-back
// candidates whose touched sets shrink and grow — every PO, the lowest
// two, the top one, none — in both estimator modes, at 1000 and 131072
// vectors and on both sides of the exact-sum bound (20 and 53 POs; 57 in
// ER-only mode). Masks left over from a wider candidate must not leak
// into the next one: each result must equal MetricsFromResult bit for
// bit.
func TestScratchReuseAcrossCandidates(t *testing.T) {
	type step struct {
		name    string
		touched func(po, nPO int) bool
		density int // words of 256 in which a touched PO flips bits
	}
	steps := []step{
		{"all POs, dense", func(int, int) bool { return true }, 256},
		{"lowest two, sparse", func(po, _ int) bool { return po < 2 }, 32},
		{"all POs, sparse", func(int, int) bool { return true }, 16},
		{"top PO", func(po, nPO int) bool { return po == nPO-1 }, 128},
		{"none", func(int, int) bool { return false }, 0},
		{"lowest PO, dense", func(po, _ int) bool { return po == 0 }, 256},
	}
	for _, erOnly := range []bool{false, true} {
		for _, nPO := range []int{20, 53, 57} {
			if nPO > 53 && !erOnly {
				continue
			}
			for _, n := range []int{1000, 1 << 17} {
				t.Run(fmt.Sprintf("erOnly=%v/%dPOs/%d", erOnly, nPO, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n + nPO)))
					c := identityCircuit(nPO)
					est, err := New(c, sim.Random(rng, nPO, n))
					if err != nil {
						t.Fatal(err)
					}
					if erOnly {
						est.SetEROnly()
					}
					sc := new(Scratch)
					words := est.vectors.Words()
					for _, st := range steps {
						res := &sim.Result{N: n, Signals: make([][]uint64, len(c.Gates))}
						touchedPO := map[int]bool{}
						for i, po := range c.POs {
							sig := append([]uint64(nil), est.goldenPO[i]...)
							if st.touched(i, nPO) {
								touchedPO[po] = true
								for w := range sig {
									if rng.Intn(256) < st.density {
										sig[w] ^= rng.Uint64()
									}
								}
								sig[words-1] &= sim.TailMask(n)
							}
							res.Signals[po] = sig
						}
						checkDistancePaths(t, st.name, est, c, res, func(id int) bool { return touchedPO[id] }, sc)
					}
				})
			}
		}
	}
}
