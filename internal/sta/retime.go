package sta

import (
	"slices"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Retimer answers the sizing step's what-if question — what would the CPD
// be with one gate at another drive? — without a full re-analysis. It
// works against the full Report of the unchanged netlist and re-times only
// the gates whose arrival can move:
//
//   - the resized gate, whose delay changes at its unchanged load;
//   - its fan-in drivers, whose load is re-summed with the resized gate's
//     new input cap;
//   - the forward cone of both, in topological order, pruned wherever a
//     recomputed arrival equals the report's exactly.
//
// Every recomputation repeats Analyze's float operations in Analyze's
// order: loads are summed over Circuit.Fanouts (consumer ID ascending, one
// entry per pin, as Analyze accumulates them), fan-in maxima start from 0
// and take strictly greater arrivals, and the CPD is folded over the POs in
// port order. TrialCPD is therefore bit-identical to the CPD of Analyze on
// the resized netlist. All working memory is allocated once, so a trial
// allocates nothing. A Retimer is not safe for concurrent use.
type Retimer struct {
	c       *netlist.Circuit
	lib     *cell.Library
	rep     *Report
	fanouts [][]int
	queue   *netlist.TopoQueue
	arrival []float64 // trial arrivals; equal to rep.Arrival between trials
	moved   []int     // gates whose trial arrival differs from rep's
}

// NewRetimer binds a re-timer to circuit c and rep, a full Analyze of c.
// c's structure must not change while the re-timer is in use. Drives may:
// after changing one, Rebind to a fresh Analyze.
func NewRetimer(c *netlist.Circuit, lib *cell.Library, rep *Report) (*Retimer, error) {
	queue, err := c.NewTopoQueue()
	if err != nil {
		return nil, err
	}
	n := len(c.Gates)
	t := &Retimer{
		c:       c,
		lib:     lib,
		fanouts: c.Fanouts(),
		queue:   queue,
		arrival: make([]float64, n),
		moved:   make([]int, 0, n),
	}
	t.Rebind(rep)
	return t, nil
}

// Rebind points the re-timer at a fresh full report of the same circuit,
// e.g. after an accepted resize.
func (t *Retimer) Rebind(rep *Report) {
	t.rep = rep
	copy(t.arrival, rep.Arrival)
}

// TrialCPD returns the CPD that Analyze would report if gate id were at
// drive d, every other gate keeping its drive. The circuit is not
// modified.
func (t *Retimer) TrialCPD(id int, d cell.Drive) float64 {
	gates, rep := t.c.Gates, t.rep
	fanin := gates[id].Fanin
	t.queue.Push(id)
	for _, fi := range fanin {
		t.queue.Push(fi)
	}
	poMoved := false
	for {
		gid, ok := t.queue.Pop()
		if !ok {
			break
		}
		g := &gates[gid]
		delay := rep.Delay[gid]
		switch {
		case gid == id:
			delay = t.lib.Delay(g.Func, d, rep.Load[gid])
		case !g.Func.IsPseudo() && slices.Contains(fanin, gid):
			delay = t.lib.Delay(g.Func, g.Drive, t.load(gid, id, d))
		}
		maxA := 0.0
		for _, fi := range g.Fanin {
			if t.arrival[fi] > maxA {
				maxA = t.arrival[fi]
			}
		}
		a := maxA + delay
		if a == rep.Arrival[gid] {
			continue // nothing downstream can move through this gate
		}
		t.arrival[gid] = a
		t.moved = append(t.moved, gid)
		poMoved = poMoved || g.Func == cell.OutPort
		for _, fo := range t.fanouts[gid] {
			t.queue.Push(fo)
		}
	}

	cpd := rep.CPD
	if poMoved {
		// Analyze's fold: the first PO's arrival, then any strictly greater one.
		for i, po := range t.c.POs {
			if a := t.arrival[po]; i == 0 || a > cpd {
				cpd = a
			}
		}
	}
	for _, gid := range t.moved {
		t.arrival[gid] = rep.Arrival[gid]
	}
	t.moved = t.moved[:0]
	return cpd
}

// load re-sums the load gate drv drives, exactly as Analyze does, with
// consumer id at drive d.
func (t *Retimer) load(drv, id int, d cell.Drive) float64 {
	load := 0.0
	for _, fo := range t.fanouts[drv] {
		g := &t.c.Gates[fo]
		if g.Func == cell.OutPort {
			load += t.lib.DefaultPOLoad
			continue
		}
		drive := g.Drive
		if fo == id {
			drive = d
		}
		load += t.lib.InputCap(g.Func, drive) + t.lib.WireCap
	}
	return load
}
