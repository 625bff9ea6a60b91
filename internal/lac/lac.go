// Package lac implements the local approximate changes (LACs) of the
// paper: wire-by-wire and wire-by-constant substitution on the fan-in
// adjacency representation, plus the candidate machinery of the circuit
// searching action — the critical-path targets set Tc and similarity-based
// switch-gate selection.
//
// Terminology follows §III-A of the paper: the gate being replaced is the
// "target gate"; the gate (or constant, which is also a gate) wired into
// the target's consumers is the "switch gate". Because switch candidates
// are drawn from the target's transitive fan-in or the constants, applying
// a LAC can never create a combinational loop.
package lac

import (
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/errest"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// Kind distinguishes the two LAC flavours.
type Kind uint8

const (
	// WireByWire substitutes the target's output with another gate's
	// output (SASIMI-style substitution).
	WireByWire Kind = iota
	// WireByConst substitutes the target's output with constant 0/1
	// (gate-level pruning).
	WireByConst
	// WireByInvWire substitutes the target's output with the
	// *complement* of another gate's output through a fresh inverter —
	// the second half of SASIMI's substitute-and-simplify catalogue.
	// Population-based optimizers avoid it (a new gate breaks the shared
	// gate ID space reproduction merges on); the greedy baselines use it.
	WireByInvWire
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case WireByWire:
		return "wire-by-wire"
	case WireByConst:
		return "wire-by-const"
	case WireByInvWire:
		return "wire-by-inv-wire"
	}
	return "wire-by-?"
}

// Change is one selected LAC: rewire all consumers of Target to Switch
// (through a new inverter for WireByInvWire).
type Change struct {
	Target int
	Switch int
	Kind   Kind
	// Similarity is the fraction of sampled vectors on which target and
	// switch (after any inversion) agree — the selection criterion.
	Similarity float64
}

// Apply performs the change on the circuit and returns the number of
// fan-in pins rewired. Constants and inverters are materialized in the
// circuit on demand.
func Apply(c *netlist.Circuit, ch Change) int {
	sw := ch.Switch
	if ch.Kind == WireByInvWire {
		sw = c.AddGate(cell.Inv, ch.Switch)
	}
	return c.ReplaceFanin(ch.Target, sw)
}

// Targets builds the searching action's targets set Tc (paper §III-B):
// every physical gate on a critical path enters Tc; each such gate is
// sampled from uniform(0,1) and the fan-ins of gates drawing > 0.5 join Tc
// as well. The margin widens "critical" to paths within margin·CPD.
func Targets(c *netlist.Circuit, r *sta.Report, rng *rand.Rand, margin float64) []int {
	onPath := r.CriticalGates(c, margin)
	seen := make(map[int]bool, len(onPath)*2)
	tc := make([]int, 0, len(onPath)*2)
	addPhysical := func(id int) {
		if !seen[id] && !c.Gates[id].Func.IsPseudo() {
			seen[id] = true
			tc = append(tc, id)
		}
	}
	for _, id := range onPath {
		addPhysical(id)
		if rng.Float64() > 0.5 {
			for _, fi := range c.Gates[id].Fanin {
				addPhysical(fi)
			}
		}
	}
	return tc
}

// PickTarget selects a uniformly random target from Tc; it returns -1 when
// Tc is empty.
func PickTarget(tc []int, rng *rand.Rand) int {
	if len(tc) == 0 {
		return -1
	}
	return tc[rng.Intn(len(tc))]
}

// BestSwitch selects the switch gate for a target: the candidate with the
// highest similarity among the target's transitive fan-in (excluding the
// target itself) and the two constants. The simulation result must belong
// to the same circuit. Ties break toward the earlier-arriving candidate
// when a timing report is supplied (nil is allowed), which favours path
// shortening at equal error cost. It returns false when the target has no
// usable candidate.
func BestSwitch(c *netlist.Circuit, res *sim.Result, r *sta.Report, target int) (Change, bool) {
	return (*Memo)(nil).bestSwitch(c, res, nil, r, target, false, -1)
}

// BestSwitchInv is BestSwitch with the inverted-wire substitution also in
// the candidate set (SASIMI's full catalogue).
func BestSwitchInv(c *netlist.Circuit, res *sim.Result, r *sta.Report, target int) (Change, bool) {
	return (*Memo)(nil).bestSwitch(c, res, nil, r, target, true, -1)
}

// Memo is one run's memo of golden diff counts for switch selection. Most
// pairs a search scores are properties of the accurate circuit: when the
// target's and the candidate's signals both equal the accurate circuit's,
// they differ on exactly as many sampled vectors as the accurate
// circuit's two gates do, whatever else the candidate changed. The memo
// counts such a pair once per run and replays the integer, so the
// similarity is the same float. It fills lazily, one row per target ever
// scored. A Memo serves candidates in the gate ID space of the circuit
// whose golden simulation created it. It is safe for concurrent use: a
// row is published once by compare-and-swap, and any goroutine may fill a
// cell, because every goroutine computes the same integer for it. The nil
// *Memo is the memo-less search.
type Memo struct {
	n int // vectors of the golden simulation
	// rows[target][switch] is the pair's diff count plus one (0 = not
	// counted yet); a row is nil until its target is first scored.
	rows []atomic.Pointer[[]atomic.Int32]
}

// NewMemo returns an empty memo for the run whose accurate circuit
// simulated to golden.
func NewMemo(golden *sim.Result) *Memo {
	return &Memo{n: golden.N, rows: make([]atomic.Pointer[[]atomic.Int32], len(golden.Signals))}
}

// row returns the target's memo row, or nil when the memo does not apply:
// no memo, or the target's signal in res is not the golden one.
func (m *Memo) row(res *sim.Result, differs func(int) bool, target int) []atomic.Int32 {
	if m == nil || res.N != m.n || m.n >= math.MaxInt32 || target >= len(m.rows) || differs(target) {
		return nil
	}
	p := &m.rows[target]
	if r := p.Load(); r != nil {
		return *r
	}
	r := make([]atomic.Int32, len(m.rows))
	if !p.CompareAndSwap(nil, &r) {
		return *p.Load()
	}
	return r
}

// countChunk is how many signal words bestSwitch counts between checks of
// its bound.
const countChunk = 32

// diffCount returns the number of vectors on which signals a and b
// differ. It gives up early, returning the partial count, once
// 1 - count/n falls strictly below floor: the full similarity could only
// be lower. So a pair whose full similarity reaches floor is counted in
// full, and a partial count's similarity is below floor.
func diffCount(a, b []uint64, n, floor float64) int {
	b = b[:len(a)]
	d := 0
	for lo := 0; lo < len(a); lo += countChunk {
		for w := lo; w < min(lo+countChunk, len(a)); w++ {
			d += bits.OnesCount64(a[w] ^ b[w])
		}
		if 1-float64(d)/n < floor {
			break
		}
	}
	return d
}

// bestSwitch is the one switch-selection loop. differs must be the
// SignalDiffers of the simulation that produced res; it is consulted only
// with a memo. A pair whose two signals both equal the accurate circuit's
// takes its count from the memo, counted in full. Without inverted wires,
// every other pair stops counting once it provably cannot win: once its
// similarity could only fall strictly below the best wire so far, which
// better rejects whatever the tie-break, below a constant's, which then
// wins over any wire as similar, or below floor, the caller's bound (-1
// for none; see Select). Inverted wires score 1 - s as well, so they
// count in full.
func (m *Memo) bestSwitch(c *netlist.Circuit, res *sim.Result, differs func(int) bool, r *sta.Report, target int, allowInv bool, floor float64) (Change, bool) {
	if target < 0 || target >= len(c.Gates) || c.Gates[target].Func.IsPseudo() {
		return Change{}, false
	}
	tfi := c.TFI(target)
	best := Change{Target: target, Switch: -1, Similarity: -1}
	better := func(sim float64, id int) bool {
		if sim != best.Similarity {
			return sim > best.Similarity
		}
		if r == nil || best.Switch < 0 {
			return false
		}
		return r.Arrival[id] < r.Arrival[best.Switch]
	}
	n := float64(res.N)
	s0 := errest.ConstSimilarity(res, target, false)
	s1 := errest.ConstSimilarity(res, target, true)
	row := m.row(res, differs, target)
	sig := res.Signals[target]
	for id := range c.Gates {
		if !tfi[id] || id == target {
			continue
		}
		f := c.Gates[id].Func
		if f == cell.OutPort || f.IsConst() {
			continue
		}
		var d int
		switch {
		case id < len(row) && !differs(id):
			v := row[id].Load()
			if v == 0 {
				v = int32(diffCount(sig, res.Signals[id], n, -1)) + 1
				row[id].Store(v)
			}
			d = int(v) - 1
		case allowInv:
			d = diffCount(sig, res.Signals[id], n, -1)
		default:
			d = diffCount(sig, res.Signals[id], n, max(best.Similarity, s0, s1, floor))
		}
		s := 1 - float64(d)/n
		if better(s, id) {
			best = Change{Target: target, Switch: id, Kind: WireByWire, Similarity: s}
		}
		if allowInv {
			if si := 1 - s; better(si, id) {
				best = Change{Target: target, Switch: id, Kind: WireByInvWire, Similarity: si}
			}
		}
	}
	// Constants: materialize lazily only if selected.
	constKind := -1
	if s0 > best.Similarity {
		best = Change{Target: target, Switch: -1, Kind: WireByConst, Similarity: s0}
		constKind = 0
	}
	if s1 > best.Similarity {
		best = Change{Target: target, Switch: -1, Kind: WireByConst, Similarity: s1}
		constKind = 1
	}
	if best.Similarity < 0 {
		return Change{}, false
	}
	if best.Kind == WireByConst {
		if constKind == 0 {
			best.Switch = c.Const0()
		} else {
			best.Switch = c.Const1()
		}
	}
	return best, true
}

// DrawTargets makes a searching action's draws: Tc from the timing
// report, then tries targets sampled from it. It returns nil when Tc is
// empty.
//
// A searching action splits into its draws (DrawTargets, or RandomTarget
// for the fallback) and its pure selection (Select), so a caller can draw
// on one goroutine, in order, and select later on another. This is exact
// because no draw depends on a similarity count. Targets draws one
// Float64 per on-path gate, PickTarget one Intn(len(Tc)) per try and
// RandomTarget one Intn over the live physical gates, each from the
// circuit's structure and timing alone. And bestSwitch on a physical
// target always succeeds, because both constants score >= 0, so a search
// applies a change iff it drew a target, and falls back to RandomChange
// (Tc empty) before any count.
func DrawTargets(c *netlist.Circuit, r *sta.Report, rng *rand.Rand, margin float64, tries int) []int {
	tc := Targets(c, r, rng, margin)
	if len(tc) == 0 {
		return nil
	}
	targets := make([]int, max(tries, 0))
	for k := range targets {
		targets[k] = PickTarget(tc, rng)
	}
	return targets
}

// RandomTarget draws a uniformly random live physical gate, the random
// LAC's target; it returns -1, drawing nothing, when there is none.
func RandomTarget(c *netlist.Circuit, rng *rand.Rand) int {
	live := c.Live()
	var phys []int
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			phys = append(phys, id)
		}
	}
	if len(phys) == 0 {
		return -1
	}
	return phys[rng.Intn(len(phys))]
}

// Select returns the change a searching action applies for the drawn
// targets: the first highest-similarity pick in draw order. differs must
// be the SignalDiffers of the simulation that produced res; r breaks
// similarity ties toward the earlier-arriving switch (nil: no tie-break,
// as in RandomChange).
//
// Target k's non-memo pairs count against a cross-target floor F_k: the
// best pick so far or the highest constant similarity of the physical
// targets drawn after k, whichever is higher. The pick stays the full
// count's: Select returns the first target whose pick is strictly above
// every earlier pick and at least every later one, and a later target's
// pick is at least its constants. If k's full best reaches F_k, every
// pair at or above F_k is counted in full, so k picks the same switch,
// kind, similarity and tie-break; if not, all k reports is below F_k and
// loses, as its full pick would. So the full count's winner w has F_w at
// most its full pick p_w and reports p_w exactly; every later floor is
// then p_w, which no loser's report reaches.
func (m *Memo) Select(c *netlist.Circuit, res *sim.Result, differs func(int) bool, r *sta.Report, targets []int) (Change, bool) {
	var buf [8]float64 // later stays on the stack for DCGWO's few tries
	later := buf[:]
	if len(targets) > len(buf) {
		later = make([]float64, len(targets))
	}
	hi := -1.0
	for k := len(targets) - 1; k >= 0; k-- {
		later[k] = hi
		if t := targets[k]; t >= 0 && t < len(c.Gates) && !c.Gates[t].Func.IsPseudo() {
			hi = max(hi, errest.ConstSimilarity(res, t, false), errest.ConstSimilarity(res, t, true))
		}
	}
	best := Change{Similarity: -1}
	for k, target := range targets {
		if ch, ok := m.bestSwitch(c, res, differs, r, target, false, max(best.Similarity, later[k])); ok && ch.Similarity > best.Similarity {
			best = ch
		}
	}
	if best.Similarity < 0 {
		return Change{}, false
	}
	return best, true
}

// Search performs one full circuit-searching action: build Tc from the
// timing report, pick a random target, select the best switch and apply
// it. It reports whether a change was applied.
func Search(c *netlist.Circuit, res *sim.Result, r *sta.Report, rng *rand.Rand, margin float64) (Change, bool) {
	return SearchN(c, res, r, rng, margin, 1)
}

// SearchN is Search with up to tries random targets sampled from Tc; the
// change with the highest similarity (lowest expected error) is applied.
// One LAC is still applied per action — extra tries only de-noise the
// similarity-guided pick on error-sensitive circuits.
func SearchN(c *netlist.Circuit, res *sim.Result, r *sta.Report, rng *rand.Rand, margin float64, tries int) (Change, bool) {
	return (*Memo)(nil).SearchN(c, res, nil, r, rng, margin, tries)
}

// SearchN is lac.SearchN with the run's memo: differs must be the
// SignalDiffers of the simulation that produced res. The change is the
// one lac.SearchN picks.
func (m *Memo) SearchN(c *netlist.Circuit, res *sim.Result, differs func(int) bool, r *sta.Report, rng *rand.Rand, margin float64, tries int) (Change, bool) {
	ch, ok := m.Select(c, res, differs, r, DrawTargets(c, r, rng, margin, tries))
	if ok {
		Apply(c, ch)
	}
	return ch, ok
}

// RandomChange applies a LAC to a uniformly random live physical gate —
// the population-initialization move (the paper performs LACs "on randomly
// selected target gates of the accurate circuit"). It reports whether a
// change was applied.
func RandomChange(c *netlist.Circuit, res *sim.Result, rng *rand.Rand) (Change, bool) {
	return (*Memo)(nil).RandomChange(c, res, nil, rng)
}

// RandomChange is lac.RandomChange with the run's memo: differs must be
// the SignalDiffers of the simulation that produced res.
func (m *Memo) RandomChange(c *netlist.Circuit, res *sim.Result, differs func(int) bool, rng *rand.Rand) (Change, bool) {
	var targets []int
	if t := RandomTarget(c, rng); t >= 0 {
		targets = []int{t}
	}
	ch, ok := m.Select(c, res, differs, nil, targets)
	if ok {
		Apply(c, ch)
	}
	return ch, ok
}
