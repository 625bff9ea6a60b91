package sta

import (
	"slices"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Retimer answers what-if timing questions about a base netlist without a
// full re-analysis. It works against the full Report of the base and times
// a candidate: a netlist that shares the base's gate IDs, ports and
// topological order (every fan-in precedes its consumer in the base's
// order) and differs from it only at a sorted change set of gates, each
// with a new function, fan-ins or drive. The candidate may also append
// gates beyond the base, listed in the change set, if each reads only base
// gates ahead of every changed base gate, as an inverted wire's inverter
// does; an appended gate is ordered right after its fan-ins. Only the
// gates whose timing can move are re-timed:
//
//   - every old and new fan-in driver of a changed gate, whose load is
//     re-summed over its candidate consumers;
//   - the changed gates and those drivers, whose delays are recomputed;
//   - the forward cone of both, in the base's topological order, pruned
//     wherever a recomputed arrival and depth both equal the report's
//     (depths are recomputed only when some changed gate has a new
//     function or new fan-ins: drives alone cannot move them);
//   - each appended gate, right after each of its fan-ins is timed.
//
// Every recomputation repeats Analyze's float operations in Analyze's
// order: a load is summed over consumers in ascending ID, one term per pin,
// as Analyze accumulates it, so an appended gate's pin comes last on its
// driver; fan-in maxima start from 0 and take strictly greater arrivals;
// the CPD and depth are folded over the POs in port order. Time is
// therefore bit-identical to Analyze of the candidate, and TrialCPD, the
// sizing step's one-gate case, to Analyze of the resized netlist. Working
// memory is reused across timings, so once warm a timing allocates
// nothing. A Retimer is not safe for concurrent use.
type Retimer struct {
	c       *netlist.Circuit
	lib     *cell.Library
	rep     *Report
	fanouts [][]int
	queue   *netlist.TopoQueue
	arrival []float64 // candidate arrivals; equal to rep.Arrival between timings
	moved   []int     // gates whose candidate arrival or depth differs from rep's
	flags   []uint8   // changedGate / rewired / reloaded marks of the current timing
	marked  []int     // gates with nonzero flags

	// Scratch for candidates with new functions or fan-ins, allocated by
	// the first one, so sizing trials never pay for it. depth equals
	// rep.Depth between timings. pinHead[drv] heads a list in pins
	// (1-based, 0 = empty) of the rewired gates reading drv in the
	// candidate, ascending, one entry per pin.
	depth   []int
	pinHead []int32
	pins    []pin
}

type pin struct {
	gate int
	next int32
}

const (
	changedGate uint8 = 1 << iota // in the change set
	rewired                       // in the change set, with new fan-ins
	reloaded                      // an old or new fan-in of a changed gate
)

// NewRetimer binds a re-timer to circuit c and rep, a full Analyze of c.
// c's structure must not change while the re-timer is in use. Drives may:
// after changing one, Rebind to a fresh Analyze.
func NewRetimer(c *netlist.Circuit, lib *cell.Library, rep *Report) (*Retimer, error) {
	t := &Retimer{lib: lib, marked: make([]int, 0, 16)}
	if err := t.Rebase(c, rep); err != nil {
		return nil, err
	}
	return t, nil
}

// Rebase binds the re-timer to another circuit c and rep, a full Analyze
// of c, as NewRetimer would, keeping the working memory it has grown.
func (t *Retimer) Rebase(c *netlist.Circuit, rep *Report) error {
	queue, err := c.NewTopoQueue()
	if err != nil {
		return err
	}
	n := len(c.Gates)
	t.c, t.fanouts, t.queue = c, c.Fanouts(), queue
	// flags and pinHead are zero between timings, past their lengths too.
	t.arrival, t.flags = slices.Grow(t.arrival[:0], n)[:n], slices.Grow(t.flags[:0], n)[:n]
	t.moved = slices.Grow(t.moved, n)
	if t.depth != nil {
		t.depth, t.pinHead = slices.Grow(t.depth[:0], n)[:n], slices.Grow(t.pinHead[:0], n)[:n]
	}
	t.Rebind(rep)
	return nil
}

// Rebind points the re-timer at a fresh full report of the same circuit,
// e.g. after an accepted resize.
func (t *Retimer) Rebind(rep *Report) {
	t.rep = rep
	copy(t.arrival, rep.Arrival)
	copy(t.depth, rep.Depth)
}

// TrialCPD returns the CPD that Analyze would report if gate id were at
// drive d, every other gate keeping its drive. The re-timer's circuit is
// resized for the duration of the call and restored before it returns.
func (t *Retimer) TrialCPD(id int, d cell.Drive) float64 {
	g := &t.c.Gates[id]
	old := g.Drive
	g.Drive = d
	cpd, _ := t.Time(t.c, []int{id}, nil)
	g.Drive = old
	return cpd
}

// Time returns the CPD and logic depth that Analyze would report for
// candidate c, which differs from the re-timer's circuit only at the gates
// in changed (ascending). When poArrival is non-nil it receives the
// candidate's per-PO arrivals in port order.
func (t *Retimer) Time(c *netlist.Circuit, changed []int, poArrival []float64) (cpd float64, maxDepth int) {
	base, gates, rep := t.c.Gates, c.Gates, t.rep
	// Depths move only through a new function or new fan-ins; a change set
	// of drives alone, like every sizing trial, skips them.
	logic := len(gates) > len(base)
	for _, id := range changed {
		g := &gates[id]
		if id >= len(base) { // appended: timed after its fan-ins, below
			t.reload(g.Fanin)
			continue
		}
		b := &base[id]
		t.mark(id, changedGate)
		t.reload(b.Fanin)
		logic = logic || g.Func != b.Func
		if !slices.Equal(g.Fanin, b.Fanin) {
			logic = true
			t.mark(id, rewired)
			t.reload(g.Fanin)
		}
	}
	if logic && t.depth == nil {
		t.depth = slices.Clone(rep.Depth)
		t.pinHead = make([]int32, len(base))
	}
	if n := len(gates); n > len(t.arrival) { // room for appended gates
		t.arrival = append(t.arrival, make([]float64, n-len(t.arrival))...)
		t.depth = append(t.depth, make([]int, n-len(t.depth))...)
		t.pinHead = append(t.pinHead, make([]int32, n-len(t.pinHead))...)
	}
	// Pin lists are built back to front, so each reads in ascending order.
	for i := len(changed) - 1; i >= 0; i-- {
		id := changed[i]
		if id < len(base) && t.flags[id]&rewired == 0 {
			continue
		}
		for _, fi := range gates[id].Fanin {
			t.pins = append(t.pins, pin{gate: id, next: t.pinHead[fi]})
			t.pinHead[fi] = int32(len(t.pins))
		}
	}

	poMoved := false
	for {
		gid, ok := t.queue.Pop()
		if !ok {
			break
		}
		g := &gates[gid]
		delay := rep.Delay[gid]
		if f := t.flags[gid]; f != 0 {
			load := rep.Load[gid]
			if f&reloaded != 0 && !g.Func.IsPseudo() { // a pseudo-cell's delay ignores its load
				load = t.load(gates, gid)
			}
			delay = t.lib.Delay(g.Func, g.Drive, load)
		}
		maxA := 0.0
		for _, fi := range g.Fanin {
			if t.arrival[fi] > maxA {
				maxA = t.arrival[fi]
			}
		}
		a := maxA + delay
		depthMoved := false
		if logic {
			d := 0
			for _, fi := range g.Fanin {
				d = max(d, t.depth[fi])
			}
			if !g.Func.IsPseudo() {
				d++
			}
			t.depth[gid] = d
			depthMoved = d != rep.Depth[gid]
		}
		// Unless it moved, nothing downstream can move through this gate.
		if a != rep.Arrival[gid] || depthMoved {
			t.arrival[gid] = a
			t.moved = append(t.moved, gid)
			poMoved = poMoved || g.Func == cell.OutPort
			for _, fo := range t.fanouts[gid] {
				t.queue.Push(fo)
			}
		}
		for id := len(base); id < len(gates); id++ {
			if slices.Contains(gates[id].Fanin, gid) {
				t.timeAppended(gates, id)
			}
		}
	}

	cpd, maxDepth = rep.CPD, rep.MaxDepth
	if poMoved {
		// Analyze's fold: the first PO's arrival, then any strictly greater one.
		for i, po := range t.c.POs {
			if a := t.arrival[po]; i == 0 || a > cpd {
				cpd = a
			}
		}
		if logic {
			maxDepth = 0
			for _, po := range t.c.POs {
				maxDepth = max(maxDepth, t.depth[po])
			}
		}
	}
	if poArrival != nil {
		for i, po := range t.c.POs {
			poArrival[i] = t.arrival[po]
		}
	}

	for _, gid := range t.moved {
		t.arrival[gid] = rep.Arrival[gid]
		if logic {
			t.depth[gid] = rep.Depth[gid]
		}
	}
	t.moved = t.moved[:0]
	for _, id := range t.marked {
		t.flags[id] = 0
		if logic {
			t.pinHead[id] = 0
		}
	}
	if len(gates) > len(base) {
		clear(t.pinHead[len(base):len(gates)])
	}
	t.marked = t.marked[:0]
	t.pins = t.pins[:0]
	return cpd, maxDepth
}

// timeAppended times appended gate id from its fan-ins' current arrivals
// and depths, as Analyze would.
func (t *Retimer) timeAppended(gates []netlist.Gate, id int) {
	g := &gates[id]
	delay := t.lib.Delay(g.Func, g.Drive, t.load(gates, id))
	maxA, d := 0.0, 0
	for _, fi := range g.Fanin {
		if t.arrival[fi] > maxA {
			maxA = t.arrival[fi]
		}
		d = max(d, t.depth[fi])
	}
	if !g.Func.IsPseudo() {
		d++
	}
	t.arrival[id] = maxA + delay
	t.depth[id] = d
}

// mark flags gate id for the current timing and queues it.
func (t *Retimer) mark(id int, f uint8) {
	if t.flags[id] == 0 {
		t.marked = append(t.marked, id)
	}
	t.flags[id] |= f
	t.queue.Push(id)
}

// reload marks the base drivers of fan-in list fanin; appended drivers
// are timed apart.
func (t *Retimer) reload(fanin []int) {
	for _, fi := range fanin {
		if fi < len(t.flags) {
			t.mark(fi, reloaded)
		}
	}
}

// load re-sums the load gate drv drives in the candidate gates, exactly as
// Analyze does. Its consumers are the base's, minus the rewired gates,
// merged with the rewired and appended gates that read it in the
// candidate, in ascending ID.
func (t *Retimer) load(gates []netlist.Gate, drv int) float64 {
	load, k := 0.0, int32(0)
	if t.pinHead != nil {
		k = t.pinHead[drv]
	}
	var fanouts []int // an appended driver has no base consumers
	if drv < len(t.fanouts) {
		fanouts = t.fanouts[drv]
	}
	for _, fo := range fanouts {
		for ; k != 0 && t.pins[k-1].gate < fo; k = t.pins[k-1].next {
			load += t.pinCap(&gates[t.pins[k-1].gate])
		}
		if t.flags[fo]&rewired == 0 {
			load += t.pinCap(&gates[fo])
		}
	}
	for ; k != 0; k = t.pins[k-1].next {
		load += t.pinCap(&gates[t.pins[k-1].gate])
	}
	return load
}

// pinCap is the load one fan-in pin of consumer g presents, as in Analyze.
func (t *Retimer) pinCap(g *netlist.Gate) float64 {
	if g.Func == cell.OutPort {
		return t.lib.DefaultPOLoad
	}
	return t.lib.InputCap(g.Func, g.Drive) + t.lib.WireCap
}
