// Package errest implements VECBEE-style batch error estimation by
// Monte-Carlo simulation: error rate (ER), normalized mean error distance
// (NMED), per-PO error rates (for the reproduction Level function), and
// target/switch signal similarity.
//
// An Estimator caches the accurate circuit's simulated signals once; every
// approximate candidate is then evaluated against the cached golden outputs
// on the same shared vector sample. With the paper's 1e5 sampled vectors
// the estimates are unbiased with negligible variance; the sample size is
// configurable so tests and benchmarks can trade accuracy for speed.
//
// An Estimator in ER-only mode (SetEROnly) serves ER-constrained runs: its
// touched-PO path, MetricsDelta, counts ER and PerPO alone and leaves NMED
// 0. New, Evaluate and MetricsFromResult ignore the mode.
package errest

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Metrics bundles every error figure computed from one simulation of an
// approximate circuit.
type Metrics struct {
	// ER is the probability that any PO differs from the accurate circuit
	// (Eq. 1 of the paper).
	ER float64
	// NMED is the mean |Vori-Vapp| normalized by 2^n - 1 (Eq. 2). An
	// ER-only Estimator's MetricsDelta leaves it 0.
	NMED float64
	// PerPO is the per-output bit error rate, used by the reproduction
	// Level function (Eq. 3).
	PerPO []float64
}

// Estimator evaluates approximate circuits against one accurate circuit on
// a fixed shared vector sample.
type Estimator struct {
	vectors  *sim.Vectors
	goldenPO [][]uint64
	// goldenRes keeps the full accurate-circuit simulation for callers
	// that need internal signals (e.g. similarity of the untouched
	// accurate netlist).
	goldenRes *sim.Result
	nPO       int
	norm      float64   // 2^nPO - 1 in float64
	pow2      []float64 // 2^i per PO index, for incremental error distances
	erOnly    bool      // the touched-PO paths skip every error distance
}

// New simulates the accurate circuit on the given vectors and returns an
// estimator bound to them.
func New(accurate *netlist.Circuit, v *sim.Vectors) (*Estimator, error) {
	res, err := sim.Run(accurate, v)
	if err != nil {
		return nil, fmt.Errorf("errest: simulating accurate circuit: %w", err)
	}
	nPO := len(accurate.POs)
	pow2 := make([]float64, nPO)
	for i, scale := 0, 1.0; i < nPO; i, scale = i+1, scale*2 {
		pow2[i] = scale
	}
	return &Estimator{
		vectors:   v,
		goldenPO:  sim.POSignals(accurate, res),
		goldenRes: res,
		nPO:       nPO,
		norm:      math.Pow(2, float64(nPO)) - 1,
		pow2:      pow2,
	}, nil
}

// SetEROnly puts the estimator in ER-only mode before its first use:
// MetricsDelta then computes no error distance and returns NMED 0.
func (e *Estimator) SetEROnly() { e.erOnly = true }

// Vectors returns the shared input sample.
func (e *Estimator) Vectors() *sim.Vectors { return e.vectors }

// GoldenResult returns the cached accurate-circuit simulation.
func (e *Estimator) GoldenResult() *sim.Result { return e.goldenRes }

// N returns the number of sampled vectors.
func (e *Estimator) N() int { return e.vectors.N }

// Evaluate simulates the approximate circuit and returns all metrics plus
// the simulation result for reuse (similarity queries, Level computation).
func (e *Estimator) Evaluate(app *netlist.Circuit) (Metrics, *sim.Result, error) {
	res, err := sim.Run(app, e.vectors)
	if err != nil {
		return Metrics{}, nil, fmt.Errorf("errest: simulating %q: %w", app.Name, err)
	}
	m, err := e.MetricsFromResult(app, res)
	return m, res, err
}

// MetricsFromResult computes metrics from an existing simulation result of
// the approximate circuit. NMED decodes each differing vector's golden and
// approximate output values exactly as sim.OutputValue does, at any output
// width: every word holding a differing vector is transposed into
// per-vector rows, so a value costs its set bits above bit 52 rather than
// a walk over every PO.
func (e *Estimator) MetricsFromResult(app *netlist.Circuit, res *sim.Result) (Metrics, error) {
	if len(app.POs) != e.nPO {
		return Metrics{}, fmt.Errorf("errest: circuit %q has %d POs, accurate has %d", app.Name, len(app.POs), e.nPO)
	}
	appPO := sim.POSignals(app, res)
	n := e.vectors.N
	words := e.vectors.Words()

	perPO := make([]float64, e.nPO)
	for i := range appPO {
		perPO[i] = float64(sim.CountDiff(appPO[i], e.goldenPO[i])) / float64(n)
	}

	// ER and NMED share a scan over differing vectors: for each word,
	// OR the per-PO XOR words; set bits mark vectors with any mismatch.
	blocks := (e.nPO + 63) / 64
	rows := make([]uint64, 2*64*blocks)
	goldRows, appRows := rows[:64*blocks], rows[64*blocks:]
	erCount := 0
	sumED := 0.0
	for w := 0; w < words; w++ {
		var anyDiff uint64
		for i := range appPO {
			anyDiff |= appPO[i][w] ^ e.goldenPO[i][w]
		}
		if anyDiff == 0 {
			continue
		}
		erCount += bits.OnesCount64(anyDiff)
		transposeWord(goldRows, e.goldenPO, w)
		transposeWord(appRows, appPO, w)
		for rest := anyDiff; rest != 0; rest &= rest - 1 {
			b := bits.TrailingZeros64(rest)
			sumED += math.Abs(e.rowValue(goldRows, b) - e.rowValue(appRows, b))
		}
	}
	return Metrics{
		ER:    float64(erCount) / float64(n),
		NMED:  sumED / e.norm / float64(n),
		PerPO: perPO,
	}, nil
}

// transposeWord fills rows with word w of the PO waveforms, transposed in
// 64×64 bit blocks: afterwards bit i of rows[64k+b] is bit b of
// po[64k+i][w], so rows[64k+b] holds POs 64k..64k+63 of the word's vector b.
func transposeWord(rows []uint64, po [][]uint64, w int) {
	for k := 0; k < len(rows); k += 64 {
		blk := (*[64]uint64)(rows[k : k+64])
		for i := range blk {
			blk[i] = 0
			if k+i < len(po) {
				blk[i] = po[k+i][w]
			}
		}
		transpose64(blk)
	}
}

// transpose64 transposes a 64×64 bit matrix in place (bit c of m[r] moves
// to bit r of m[c]) by swapping off-diagonal blocks of halving size.
func transpose64(m *[64]uint64) {
	mask := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (m[k]>>j ^ m[k+j]) & mask
			m[k+j] ^= t
			m[k] ^= t << j
		}
		mask ^= mask << (j >> 1)
	}
}

// rowValue decodes vector b's output value from transposed rows with the
// float additions of sim.OutputValue, in the same order. The low 53 bits
// convert in one step: OutputValue's partial sums over them are integers
// below 2^53, so every one is exact. Each higher set bit then adds its
// power of two, in ascending order, rounding as OutputValue does.
func (e *Estimator) rowValue(rows []uint64, b int) float64 {
	const exact = 53
	v := float64(rows[b] & (1<<exact - 1))
	for hi := rows[b] >> exact; hi != 0; hi &= hi - 1 {
		v += e.pow2[exact+bits.TrailingZeros64(hi)]
	}
	for k := 64; k < len(rows); k += 64 {
		for x := rows[k+b]; x != 0; x &= x - 1 {
			v += e.pow2[k+bits.TrailingZeros64(x)]
		}
	}
	return v
}

// MetricsDelta computes metrics from a simulation of the approximate
// circuit given an oracle telling which PO gates' waveforms may differ
// from the accurate circuit's (an over-approximation is fine; typically
// sim.(*Simulator).SignalDiffers after an incremental run). POs outside
// the touched set contribute exactly nothing to ER, NMED and PerPO — their
// waveforms equal the golden ones — so for up to 53 POs the scan runs over
// the touched POs only. The result is bit-identical to MetricsFromResult
// on the same simulation: where N·(2^nPO − 1) < 2^53, the error distances
// sum to an exact integer below 2^53, which the bit-sliced kernel computes
// in int64; otherwise the running float sum may round, so each vector's
// exact distance is added in MetricsFromResult's vector order. Beyond 53
// POs an output value rounds, and how it rounds depends on untouched bits
// too, so MetricsDelta runs MetricsFromResult, as it does without an
// oracle. In ER-only mode it scans the touched POs at any width and
// returns NMED 0: ER and PerPO are popcounts of golden-vs-approximate
// differences, which decode no output value and to which an untouched PO
// adds nothing, so they still equal MetricsFromResult's bit for bit.
func (e *Estimator) MetricsDelta(app *netlist.Circuit, res *sim.Result, touched func(gateID int) bool) (Metrics, error) {
	if len(app.POs) != e.nPO {
		return Metrics{}, fmt.Errorf("errest: circuit %q has %d POs, accurate has %d", app.Name, len(app.POs), e.nPO)
	}
	if touched == nil || e.nPO > 53 && !e.erOnly {
		return e.MetricsFromResult(app, res)
	}
	planes := e.touchedPlanes(app, res, touched)
	n := e.vectors.N
	m := Metrics{PerPO: make([]float64, e.nPO)}
	for _, p := range planes {
		m.PerPO[p.pos] = float64(sim.CountDiff(p.app, p.gold)) / float64(n)
	}
	// Every distance and partial sum is an integer below 2^53 (nPO ≤ 53
	// holds here outside ER-only mode, which never reaches a distance).
	exact := float64(e.vectors.N)*e.norm < 1<<53
	erCount := 0
	var total int64
	sumED := 0.0
	for w := 0; w < e.vectors.Words(); w++ {
		var anyDiff uint64
		for _, p := range planes {
			anyDiff |= p.app[w] ^ p.gold[w]
		}
		if anyDiff == 0 {
			continue
		}
		erCount += bits.OnesCount64(anyDiff)
		if e.erOnly {
			continue
		}
		if exact {
			total += distance(planes, w)
			continue
		}
		for rest := anyDiff; rest != 0; rest &= rest - 1 {
			b := uint(bits.TrailingZeros64(rest))
			d := 0.0 // Vori - Vapp: exact, every partial sum is below 2^54
			for _, p := range planes {
				d += (float64(p.gold[w]>>b&1) - float64(p.app[w]>>b&1)) * e.pow2[p.pos]
			}
			sumED += math.Abs(d)
		}
	}
	if exact {
		sumED = float64(total)
	}
	m.ER = float64(erCount) / float64(n)
	m.NMED = sumED / e.norm / float64(n)
	return m, nil
}

// plane is one touched PO of an error-distance sum, as a bit slice: PO
// port index pos, weighing 2^pos, with its golden and approximate
// waveforms.
type plane struct {
	pos       int
	gold, app []uint64
}

// touchedPlanes returns the planes of the POs whose gates touched reports,
// in ascending PO order.
func (e *Estimator) touchedPlanes(app *netlist.Circuit, res *sim.Result, touched func(gateID int) bool) []plane {
	planes := make([]plane, 0, len(app.POs))
	for i, po := range app.POs {
		if touched(po) {
			planes = append(planes, plane{pos: i, gold: e.goldenPO[i], app: res.Signals[po]})
		}
	}
	return planes
}

// distance is the error-distance kernel: Σ |Vori - Vapp| over the 64
// vectors of word w, as an exact integer, where planes list in
// ascending PO order every position at which the two values may differ
// (up to 53 of them). The word's 64 vectors are bit-sliced (Biham, FSE
// 1997). A first pass marks the lanes where Vapp > Vori: the approximate
// bit at the highest differing position is 1, and each higher plane
// overrides the lower ones. In a lane with Vori ≥ Vapp a differing
// position adds 2^i where the golden bit is 1 and subtracts it where it is
// 0; in a marked lane the signs swap. So plane i adds
// 2^i·(2·|x ∧ (g ⊕ neg)| − |x|) for the differing lanes x.
func distance(planes []plane, w int) int64 {
	var neg uint64
	for _, p := range planes {
		a := p.app[w]
		x := p.gold[w] ^ a
		neg = neg&^x | a&x
	}
	var sum int64
	for _, p := range planes {
		g := p.gold[w]
		x := g ^ p.app[w]
		sum += int64(2*bits.OnesCount64(x&(g^neg))-bits.OnesCount64(x)) << p.pos
	}
	return sum
}

// ER is a convenience wrapper returning only the error rate.
func (e *Estimator) ER(app *netlist.Circuit) (float64, error) {
	m, _, err := e.Evaluate(app)
	return m.ER, err
}

// NMED is a convenience wrapper returning only the normalized mean error
// distance.
func (e *Estimator) NMED(app *netlist.Circuit) (float64, error) {
	m, _, err := e.Evaluate(app)
	return m.NMED, err
}

// Similarity returns the fraction of vectors on which two simulated gate
// signals agree — the paper's switch-gate selection criterion.
func Similarity(res *sim.Result, a, b int) float64 {
	return 1 - float64(sim.CountDiff(res.Signals[a], res.Signals[b]))/float64(res.N)
}

// ConstSimilarity returns the fraction of vectors on which the gate's
// signal equals the constant value (false = 0, true = 1).
func ConstSimilarity(res *sim.Result, id int, value bool) float64 {
	ones := sim.CountOnes(res.Signals[id])
	if value {
		return float64(ones) / float64(res.N)
	}
	return 1 - float64(ones)/float64(res.N)
}
