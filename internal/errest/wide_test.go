package errest

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// referenceMetrics is the per-vector scan MetricsFromResult replaces: each
// differing vector's golden and approximate values are decoded with
// sim.OutputValue, one walk over every PO per value.
func referenceMetrics(e *Estimator, app *netlist.Circuit, res *sim.Result) Metrics {
	appPO := sim.POSignals(app, res)
	n := e.vectors.N
	perPO := make([]float64, e.nPO)
	for i := range appPO {
		perPO[i] = float64(sim.CountDiff(appPO[i], e.goldenPO[i])) / float64(n)
	}
	erCount := 0
	sumED := 0.0
	for w := 0; w < e.vectors.Words(); w++ {
		var anyDiff uint64
		for i := range appPO {
			anyDiff |= appPO[i][w] ^ e.goldenPO[i][w]
		}
		erCount += bits.OnesCount64(anyDiff)
		for rest := anyDiff; rest != 0; rest &= rest - 1 {
			k := w*64 + bits.TrailingZeros64(rest)
			sumED += math.Abs(sim.OutputValue(e.goldenPO, k) - sim.OutputValue(appPO, k))
		}
	}
	return Metrics{ER: float64(erCount) / float64(n), NMED: sumED / e.norm / float64(n), PerPO: perPO}
}

// TestMetricsFromResultWideMatchesReference runs the transposed scan on
// LAC-mutated circuits wider than 53 POs — Adder (129 POs: a partial third
// 64-PO block), Max (128: two full blocks) and c5315 (57) — at a vector
// count that is a multiple of 64 and one that is not. ER, NMED and PerPO
// must equal the reference bit for bit.
func TestMetricsFromResultWideMatchesReference(t *testing.T) {
	for _, name := range []string{"Adder", "Max", "c5315"} {
		for _, n := range []int{2048, 1000} {
			t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) {
				base := gen.MustBuild(name)
				base.Const0()
				base.Const1()
				rng := rand.New(rand.NewSource(int64(n)))
				est, err := New(base, sim.Random(rng, len(base.PIs), n))
				if err != nil {
					t.Fatal(err)
				}
				// Accumulate LACs until six candidates have differed from
				// the accurate circuit: a LAC may be masked at every PO.
				cand := base.Clone()
				differing := 0
				for lacs := 1; differing < 6; lacs++ {
					if lacs > 60 {
						t.Fatalf("only %d of %d candidates differed: the scan was barely exercised", differing, lacs-1)
					}
					randomLAC(cand, rng)
					got, res, err := est.Evaluate(cand)
					if err != nil {
						t.Fatal(err)
					}
					metricsEqual(t, fmt.Sprintf("after %d LACs", lacs), got, referenceMetrics(est, cand, res))
					if got.ER > 0 {
						differing++
					}
				}
			})
		}
	}
}

// identityCircuit has nPO inputs, each driving one output, so its golden PO
// waveforms are its input vectors.
func identityCircuit(nPO int) *netlist.Circuit {
	c := netlist.New("identity")
	for i := 0; i < nPO; i++ {
		c.AddOutput("o", c.AddInput("i"))
	}
	return c
}

// FuzzMetricsFromResult compares the transposed scan with the reference on
// random golden and approximate PO waveforms of 1–200 POs, at vector
// counts that are rarely a multiple of 64. Each PO's golden waveform has
// its own density, so some outputs are mostly 0: runs of clear bits above
// bit 52 are where rounding one added power of two at a time differs from
// rounding once. The approximation flips random bits at a fuzzed density,
// from identical waveforms to mostly differing ones. The seed corpus under
// testdata/fuzz/FuzzMetricsFromResult covers 53 and 54 POs, the widths
// around the exact-conversion boundary.
func FuzzMetricsFromResult(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, pos uint8, vectors uint16, density uint8) {
		nPO := int(pos)%200 + 1
		n := int(vectors)%1000 + 1
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
		res := &sim.Result{N: n, Signals: make([][]uint64, len(c.Gates))}
		for i, po := range c.POs {
			sig := append([]uint64(nil), est.goldenPO[i]...)
			for w := range sig {
				// Each word flips with probability density/256: most of
				// its bits at once, or a sparse few.
				if rng.Intn(256) < int(density) {
					sig[w] ^= rng.Uint64() & rng.Uint64()
				}
			}
			sig[words-1] &= tail
			res.Signals[po] = sig
		}
		got, err := est.MetricsFromResult(c, res)
		if err != nil {
			t.Fatal(err)
		}
		metricsEqual(t, fmt.Sprintf("%d POs, %d vectors", nPO, n), got, referenceMetrics(est, c, res))
	})
}

// TestWideValuesRoundStepwise pins the rounding of output values above 53
// bits. Each pattern is one vector's set output bits; the approximation is
// all zeros, so NMED carries the decoded value itself. {0, 3, 53, 56} and
// {0, 1, 3, 53, 55} are values whose stepwise rounding (a tie at bit 53
// that lands on a midpoint, then a tie at the next set bit) differs from
// rounding their exact integer once.
func TestWideValuesRoundStepwise(t *testing.T) {
	patterns := [][]int{
		{0, 3, 53, 56},
		{0, 1, 3, 53, 55},
		{0, 3, 53, 60, 64, 70},
		{1, 52, 53, 54, 55, 127, 128},
		{53}, {52, 53}, {0, 53, 54, 55, 100, 128},
	}
	all := make([]int, 129)
	for i := range all {
		all[i] = i
	}
	patterns = append(patterns, all)
	for _, bitsSet := range patterns {
		c := identityCircuit(129)
		v := &sim.Vectors{N: 1, PerPI: make([][]uint64, 129)}
		for i := range v.PerPI {
			v.PerPI[i] = []uint64{0}
		}
		for _, i := range bitsSet {
			v.PerPI[i][0] = 1
		}
		est, err := New(c, v)
		if err != nil {
			t.Fatal(err)
		}
		res := &sim.Result{N: 1, Signals: make([][]uint64, len(c.Gates))}
		for _, po := range c.POs {
			res.Signals[po] = []uint64{0}
		}
		got, err := est.MetricsFromResult(c, res)
		if err != nil {
			t.Fatal(err)
		}
		metricsEqual(t, fmt.Sprintf("bits %v", bitsSet), got, referenceMetrics(est, c, res))
	}
}
