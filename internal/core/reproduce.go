package core

import (
	"sort"

	"repro/internal/netlist"
)

// Reproduce exposes circuit reproduction to the baseline optimizers (the
// VaACS genetic baseline uses the same crossover mechanism). It returns
// nil when the parents have different gate ID spaces or the merge would be
// cyclic.
func Reproduce(p1, p2 *Individual, wt, we float64) *netlist.Circuit {
	return reproduce(p1, p2, wt, we)
}

// minPOErr floors the per-PO error in the Level function so error-free
// outputs get a large but finite bonus (the paper divides by Error(POi)).
const minPOErr = 1e-3

// levels computes the PO-TFI pair evaluation function of Eq. 3 for every
// primary output of an evaluated individual:
//
//	Level(POi) = wt·1/Ta(POi) + we·1/Error(POi)
func levels(ind *Individual, wt, we float64) []float64 {
	out := make([]float64, len(ind.POArrival))
	for i := range out {
		ta := ind.POArrival[i]
		if ta <= 0 {
			ta = 1e-9 // PO wired straight to a PI or constant
		}
		errI := ind.PerPO[i]
		if errI < minPOErr {
			errI = minPOErr
		}
		out[i] = wt/ta + we/errI
	}
	return out
}

// reproduce builds a child circuit by aggregating the better PO-TFI pairs
// of two evaluated parents (circuit reproduction, paper §III-B): for each
// PO the parent with the higher Level donates that PO's whole transitive
// fan-in adjacency; gates shared between pairs accept only the first
// write; untouched gates keep parent 1's adjacency. Because parents share
// the accurate circuit's gate ID space, the merge is a per-gate adjacency
// choice. It returns nil for parents in different ID spaces, or, as a
// guard, for a child with a loop: merging acyclic parents makes none,
// since a written gate takes its donor's fan-ins, all written by the same
// pick or an earlier one. DCGWO's parents, which share the base's ID
// space, never take either path. Each donor's fan-in is walked once over
// all its picks, stopping at gates its earlier picks reached: those were
// written then, with their whole fan-in in that donor, so every gate
// still takes the donor of the first pick whose cone contains it.
func reproduce(p1, p2 *Individual, wt, we float64) *netlist.Circuit {
	c1, c2 := p1.Circuit, p2.Circuit
	if len(c1.Gates) != len(c2.Gates) || len(c1.POs) != len(c2.POs) {
		return nil // different ID spaces: not reproducible
	}
	l1 := levels(p1, wt, we)
	l2 := levels(p2, wt, we)

	type pick struct {
		po    int
		donor int // 0: parent 1, 1: parent 2
		level float64
	}
	picks := make([]pick, len(c1.POs))
	for i := range picks {
		picks[i] = pick{po: i, donor: 0, level: l1[i]}
		if l2[i] > l1[i] {
			picks[i] = pick{po: i, donor: 1, level: l2[i]}
		}
	}
	// Higher-Level pairs write first, so shared gates follow the better
	// cone (the paper's "first write-in" rule applied best-first).
	sort.Slice(picks, func(a, b int) bool { return picks[a].level > picks[b].level })

	child := c1.Clone()
	n := len(child.Gates)
	written := make([]bool, n)
	donors, reached := [2]*netlist.Circuit{c1, c2}, [2][]bool{make([]bool, n), make([]bool, n)}
	var stack []int
	for _, pk := range picks {
		donor, seen := donors[pk.donor], reached[pk.donor]
		if root := donor.POs[pk.po]; !seen[root] {
			seen[root] = true
			stack = append(stack[:0], root)
		}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			g := donor.Gates[id]
			for _, fi := range g.Fanin {
				if !seen[fi] {
					seen[fi] = true
					stack = append(stack, fi)
				}
			}
			if written[id] {
				continue
			}
			written[id] = true
			if pk.donor == 0 {
				continue // scaffold already holds parent 1's adjacency
			}
			g.Name = child.Gates[id].Name
			child.SetGate(id, g) // in place; drops the order shared with c1
		}
	}
	if _, err := child.TopoOrder(); err != nil {
		return nil
	}
	return child
}
