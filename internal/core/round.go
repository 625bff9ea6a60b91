package core

import (
	"slices"

	"repro/internal/errest"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// A greedy round (VECBEE-S, HEDALS) commits at most one change to its
// current circuit, the round's parent, so each candidate is evaluated
// against the parent: its simulation and timing report are the
// simulator's and the re-timer's reference, exact for any reference whose
// full waveforms and report they hold. Errors are still measured against
// the accurate circuit: a PO counts as touched when the change altered it
// or the parent already differs there, and every other PO equals the
// accurate one. These evaluations skip the generation cache, whose keys
// are diffs against the accurate circuit: they are neither lookups nor
// fallbacks.

// round is one greedy round's shared, read-only state.
type round struct {
	parent  *netlist.Circuit
	res     *sim.Result // the parent's full simulation
	rep     *sta.Report // the parent's full timing report
	pos     []int       // the parent's topological positions
	fanouts [][]int     // the parent's fanouts
	touched []bool      // by gate ID: POs where the parent differs from the accurate circuit
	targets []int
	changes []lac.Change // changes[k] is target k's, written by its worker
}

// rebased is an arena's scratch for one round: a copy of the parent,
// edited in place and restored, and a simulator and a re-timer whose
// reference is the parent.
type rebased struct {
	r   *round
	c   *netlist.Circuit
	sim *sim.Simulator
	rt  *sta.Retimer
}

// EvaluateRound evaluates one greedy round on the Evaluator's pipeline:
// for each target, a worker selects lac.BestSwitchInv's change on parent
// given res and rep, parent's full simulation on the Evaluator's vectors
// (Simulate's will do) and timing report, applies it to its own copy of
// parent, evaluates and undoes it. It returns the Individuals and changes
// of the targets that have one, in target order, and counts one
// evaluation each. Each Individual is bit-identical to Evaluate of
// parent.Clone() after lac.Apply of its change, at any worker count, but
// its Circuit is nil: the caller builds the one it keeps that way. parent
// must share the accurate circuit's ports and constants, and must not
// change during the call.
func (e *Evaluator) EvaluateRound(parent *netlist.Circuit, res *sim.Result, rep *sta.Report, targets []int) ([]*Individual, []lac.Change, error) {
	pos, err := parent.TopoPos() // memoized here, before the workers read it
	if err != nil {
		return nil, nil, err
	}
	r := &round{parent: parent, res: res, rep: rep, pos: pos, fanouts: parent.Fanouts(),
		touched: make([]bool, len(parent.Gates)), targets: targets, changes: make([]lac.Change, len(targets))}
	golden := e.est.GoldenResult()
	for _, po := range parent.POs {
		r.touched[po] = !slices.Equal(res.Signals[po], golden.Signals[po])
	}
	p, err := e.startPipeline(len(targets))
	if err != nil {
		return nil, nil, err
	}
	for range targets {
		p.submit(task{round: r})
	}
	out, err := p.wait()
	if err != nil {
		return nil, nil, err
	}
	kids, changes := out[:0], r.changes[:0]
	for k, ind := range out {
		if ind != nil {
			kids = append(kids, ind)
			changes = append(changes, r.changes[k])
		}
	}
	return kids, changes, nil
}

// evaluateEdit selects round target k's change and evaluates the parent
// plus that change in arena a, leaving a's copy of the parent as it found
// it. A target without a change gives nil.
func (e *Evaluator) evaluateEdit(a *arena, r *round, k int) (*Individual, error) {
	ch, ok := lac.BestSwitchInv(r.parent, r.res, r.rep, r.targets[k])
	if !ok {
		return nil, nil
	}
	r.changes[k] = ch
	n := len(r.parent.Gates)
	// changed lists the target's consumers, ascending, then any inverter.
	var changed []int
	for _, id := range r.fanouts[ch.Target] {
		if r.pos[ch.Switch] >= r.pos[id] {
			// A constant the parent's order puts after a consumer: the
			// parent's order cannot serve the candidate.
			c := r.parent.Clone()
			lac.Apply(c, ch)
			e.cache.fallbacks.Add(1)
			ind, err := e.evaluateFresh(a.sim, c)
			if ind != nil {
				ind.Circuit = nil
			}
			return ind, err
		}
		if len(changed) == 0 || changed[len(changed)-1] != id {
			changed = append(changed, id)
		}
	}
	rb, err := a.rebase(e, r)
	if err != nil {
		return nil, err
	}
	c := rb.c
	if lac.Apply(c, ch); len(c.Gates) > n {
		changed = append(changed, n)
	}
	res, err := rb.sim.IncrementalRun(c, changed)
	var ind *Individual
	if err == nil {
		var m errest.Metrics
		m, err = e.est.MetricsDelta(c, res, func(id int) bool { return r.touched[id] || rb.sim.SignalDiffers(id) })
		if err == nil {
			poArrival := make([]float64, len(c.POs))
			cpd, depth := rb.rt.Time(c, changed, poArrival)
			ind = e.finish(c, m, cpd, depth, poArrival)
			ind.Circuit = nil
		}
	}
	for _, id := range changed {
		if id < n {
			copy(c.Gates[id].Fanin, r.parent.Gates[id].Fanin)
		}
	}
	c.Gates = c.Gates[:n]
	c.Invalidate() // no topology memoized for the candidate outlives it
	return ind, err
}

// rebase binds the arena's round scratch to round r, once per round: a
// fresh copy of the parent, and the simulator and re-timer rebased on it,
// their working memory kept from earlier rounds.
func (a *arena) rebase(e *Evaluator, r *round) (*rebased, error) {
	rb := &a.rb
	if rb.r == r {
		return rb, nil
	}
	var err error
	if rb.sim == nil {
		rb.sim, err = sim.NewSimulator(r.parent, e.est.Vectors(), r.res)
	} else {
		err = rb.sim.Rebase(r.parent, r.res)
	}
	if err != nil {
		return nil, err
	}
	if rb.rt == nil {
		rb.rt, err = sta.NewRetimer(r.parent, e.lib, r.rep)
	} else {
		err = rb.rt.Rebase(r.parent, r.rep)
	}
	if err != nil {
		return nil, err
	}
	rb.r, rb.c = r, r.parent.Clone()
	return rb, nil
}
