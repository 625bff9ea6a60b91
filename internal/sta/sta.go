// Package sta implements static timing analysis on netlist circuits with
// the cell library's load-dependent linear delay model. It stands in for
// PrimeTime in the paper's flow and provides exactly what the framework
// queries: per-gate arrival times, per-PO worst arrival Ta(PO), the
// critical path (as a gate sequence), circuit logic depth and critical
// path delay (CPD), plus required times and slack for the sizing step.
package sta

import (
	"fmt"
	"slices"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Report holds the results of one timing analysis.
type Report struct {
	// Arrival is the worst-case signal arrival time at each gate's output
	// in ps. Primary inputs and constants arrive at t = 0.
	Arrival []float64
	// Required is the latest tolerable arrival per gate for the CPD to
	// hold (required time under clock = CPD).
	Required []float64
	// Slack is Required - Arrival per gate; the critical path has ~0
	// slack.
	Slack []float64
	// Load is the capacitive load each gate drives, in fF.
	Load []float64
	// Delay is the propagation delay of each gate at its load.
	Delay []float64
	// Depth is the logic depth (number of physical gates on the longest
	// PI-to-gate path, inclusive).
	Depth []int
	// POArrival is Ta(PO) per primary output in port order.
	POArrival []float64
	// CPD is the critical path delay: max over POs of POArrival.
	CPD float64
	// MaxDepth is the logic depth of the circuit (max over POs).
	MaxDepth int
	// CritPO is the index (in port order) of the PO with the worst
	// arrival; -1 when the circuit has no POs.
	CritPO int

	order []int
}

// Analyze runs full forward/backward timing propagation.
func Analyze(c *netlist.Circuit, lib *cell.Library) (*Report, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	n := len(c.Gates)
	r := &Report{
		Arrival:   make([]float64, n),
		Required:  make([]float64, n),
		Slack:     make([]float64, n),
		Load:      make([]float64, n),
		Delay:     make([]float64, n),
		Depth:     make([]int, n),
		POArrival: make([]float64, len(c.POs)),
		CritPO:    -1,
		order:     order,
	}

	// Loads: each fan-in pin of a consumer adds its input cap plus a
	// fixed wire cap; primary outputs present the library's PO load.
	for id := range c.Gates {
		g := &c.Gates[id]
		for _, fi := range g.Fanin {
			if g.Func == cell.OutPort {
				r.Load[fi] += lib.DefaultPOLoad
			} else {
				r.Load[fi] += lib.InputCap(g.Func, g.Drive) + lib.WireCap
			}
		}
	}

	// Forward pass: arrival and depth.
	for _, id := range order {
		g := &c.Gates[id]
		r.Delay[id] = lib.Delay(g.Func, g.Drive, r.Load[id])
		maxA, maxD := 0.0, 0
		for _, fi := range g.Fanin {
			if r.Arrival[fi] > maxA {
				maxA = r.Arrival[fi]
			}
			if r.Depth[fi] > maxD {
				maxD = r.Depth[fi]
			}
		}
		r.Arrival[id] = maxA + r.Delay[id]
		if g.Func.IsPseudo() {
			r.Depth[id] = maxD
		} else {
			r.Depth[id] = maxD + 1
		}
	}

	for i, po := range c.POs {
		r.POArrival[i] = r.Arrival[po]
		if r.CritPO < 0 || r.POArrival[i] > r.CPD {
			r.CPD = r.POArrival[i]
			r.CritPO = i
		}
		if d := r.Depth[po]; d > r.MaxDepth {
			r.MaxDepth = d
		}
	}

	// Backward pass: required time under an implicit clock equal to the
	// CPD; dangling gates get no constraint (infinite required time,
	// represented by a large sentinel so slack stays finite).
	const unconstrained = 1e18
	for id := range r.Required {
		r.Required[id] = unconstrained
	}
	for _, po := range c.POs {
		if r.CPD < r.Required[po] {
			r.Required[po] = r.CPD
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		req := r.Required[id]
		for _, fi := range c.Gates[id].Fanin {
			if cand := req - r.Delay[id]; cand < r.Required[fi] {
				r.Required[fi] = cand
			}
		}
	}
	for id := range r.Slack {
		r.Slack[id] = r.Required[id] - r.Arrival[id]
	}
	return r, nil
}

// CriticalPathForPO backtracks the worst path ending at PO index i,
// returning gate IDs from a primary input (or constant) to the PO.
func (r *Report) CriticalPathForPO(c *netlist.Circuit, i int) []int {
	return r.appendPathForPO(nil, c, i)
}

// appendPathForPO appends CriticalPathForPO(c, i) to dst.
func (r *Report) appendPathForPO(dst []int, c *netlist.Circuit, i int) []int {
	if i < 0 || i >= len(c.POs) {
		return dst
	}
	start := len(dst)
	id := c.POs[i]
	for {
		dst = append(dst, id)
		g := &c.Gates[id]
		if len(g.Fanin) == 0 {
			break
		}
		best, bestA := g.Fanin[0], r.Arrival[g.Fanin[0]]
		for _, fi := range g.Fanin[1:] {
			if r.Arrival[fi] > bestA {
				best, bestA = fi, r.Arrival[fi]
			}
		}
		id = best
	}
	// Reverse to PI→PO order.
	slices.Reverse(dst[start:])
	return dst
}

// CriticalPath returns the overall worst path (the path realizing the CPD).
func (r *Report) CriticalPath(c *netlist.Circuit) []int {
	return r.CriticalPathForPO(c, r.CritPO)
}

// CriticalGates returns the set of physical gates lying on any PO's worst
// path whose arrival is within margin·CPD of the CPD — the candidate
// targets set the searching action draws from. With margin = 0 only the
// single worst path contributes; the paper samples over "the critical
// paths", so callers typically pass a small margin (e.g. 0.05).
func (r *Report) CriticalGates(c *netlist.Circuit, margin float64) []int {
	thresh := r.CPD * (1 - margin)
	seen := make([]bool, len(c.Gates))
	var out, path []int
	for i := range c.POs {
		if r.POArrival[i] < thresh {
			continue
		}
		path = r.appendPathForPO(path[:0], c, i)
		for _, id := range path {
			if seen[id] || c.Gates[id].Func.IsPseudo() {
				continue
			}
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
