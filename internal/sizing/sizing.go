// Package sizing implements the paper's step 3, post-optimization: dangling
// gate deletion followed by gate (re)sizing under an area constraint
// Areacon, converting the area freed by approximation into drive-strength
// (and therefore critical-path delay) improvement. It stands in for Design
// Compiler's structure-preserving incremental resize.
//
// The sizer is a greedy slack-driven loop: each pass evaluates, for every
// gate on (or near) the critical path, the true CPD delta of upsizing it
// one drive step, and applies the single best feasible move. Upsizing
// also loads the gate's drivers, so each trial re-times the gate, its
// drivers and their fanout cones with an sta.Retimer, bit-identical to a
// full re-analysis. When the netlist exceeds the area budget, high-slack
// gates are downsized first.
package sizing

import (
	"fmt"
	"sort"

	"repro/internal/cell"
	"repro/internal/netlist"
	"repro/internal/sta"
)

const (
	// critMargin widens the candidate set to gates whose path arrival is
	// within this fraction of the CPD.
	critMargin = 0.05
	// minGain is the smallest CPD improvement (ps) worth a move.
	minGain = 0.01
	// maxCandidates bounds how many critical gates one pass tries (worst
	// slack first).
	maxCandidates = 64
	// maxMoves caps the default move budget, so post-optimization stays
	// sub-quadratic on 10k+-gate netlists.
	maxMoves = 300
)

// Options tunes the post-optimization loop.
type Options struct {
	// AreaCon is the area budget in µm² the resized netlist must respect.
	AreaCon float64
	// MaxMoves bounds the number of accepted resize moves; zero means the
	// default of 4 moves per gate, at most 300.
	MaxMoves int
}

// Result reports what post-optimization did.
type Result struct {
	// Circuit is the compacted, resized netlist.
	Circuit *netlist.Circuit
	// Report is the final timing analysis.
	Report *sta.Report
	// Area is the final live area.
	Area float64
	// RemovedGates counts dangling gates deleted.
	RemovedGates int
	// Upsized and Downsized count accepted moves.
	Upsized, Downsized int
	// Trials counts the upsizing candidates timed.
	Trials int
}

// PostOptimize deletes dangling gates and resizes the remainder under the
// area constraint, returning the final netlist (a new compacted circuit —
// the input is not modified) and its timing.
func PostOptimize(c *netlist.Circuit, lib *cell.Library, opts Options) (*Result, error) {
	if opts.MaxMoves <= 0 {
		opts.MaxMoves = min(4*c.NumGates(), maxMoves)
	}
	before := c.NumGates()
	nc, _ := c.Compact()
	res := &Result{Circuit: nc, RemovedGates: before - nc.NumGates()}

	rep, err := sta.Analyze(nc, lib)
	if err != nil {
		return nil, fmt.Errorf("sizing: %w", err)
	}
	area := nc.Area(lib)

	// Phase 1: if over budget, recover area by downsizing the gates with
	// the most slack until feasible (accepting CPD degradation — the
	// constraint is hard, as in the paper's Fig. 8 sweep below 1.0×).
	for area > opts.AreaCon {
		id := bestDownsize(nc, lib, rep)
		if id < 0 {
			break // nothing left to shrink
		}
		nc.Gates[id].Drive--
		res.Downsized++
		rep, err = sta.Analyze(nc, lib)
		if err != nil {
			return nil, err
		}
		area = nc.Area(lib)
	}

	// Phase 2: greedy upsizing of critical gates within the remaining
	// headroom, accepting only moves that truly reduce the CPD.
	rt, err := sta.NewRetimer(nc, lib, rep)
	if err != nil {
		return nil, fmt.Errorf("sizing: %w", err)
	}
	for moves := 0; moves < opts.MaxMoves; moves++ {
		bestID, bestGain := -1, minGain
		bestArea := 0.0
		cands := rep.CriticalGates(nc, critMargin)
		if len(cands) > maxCandidates {
			// Keep the worst-slack candidates: they bound the CPD.
			sort.Slice(cands, func(i, j int) bool {
				return rep.Slack[cands[i]] < rep.Slack[cands[j]]
			})
			cands = cands[:maxCandidates]
		}
		for _, id := range cands {
			g := &nc.Gates[id]
			if g.Drive+1 >= cell.NumDrives {
				continue
			}
			dArea := lib.Area(g.Func, g.Drive+1) - lib.Area(g.Func, g.Drive)
			if area+dArea > opts.AreaCon {
				continue
			}
			res.Trials++
			if gain := rep.CPD - rt.TrialCPD(id, g.Drive+1); gain > bestGain {
				bestID, bestGain, bestArea = id, gain, dArea
			}
		}
		if bestID < 0 {
			break
		}
		nc.Gates[bestID].Drive++
		area += bestArea
		res.Upsized++
		// The full analysis also feeds the next pass's slack ordering
		// and critical gates.
		rep, err = sta.Analyze(nc, lib)
		if err != nil {
			return nil, err
		}
		rt.Rebind(rep)
	}

	res.Report = rep
	res.Area = area
	return res, nil
}

// bestDownsize picks the live physical gate with the largest positive
// slack that can shrink a drive step, or -1.
func bestDownsize(c *netlist.Circuit, lib *cell.Library, rep *sta.Report) int {
	live := c.Live()
	best, bestSlack := -1, 0.0
	for id := range c.Gates {
		g := &c.Gates[id]
		if !live[id] || g.Func.IsPseudo() || g.Drive == cell.X1 {
			continue
		}
		if s := rep.Slack[id]; best < 0 || s > bestSlack {
			best, bestSlack = id, s
		}
	}
	return best
}
