package sta_test

import (
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// referencePath backtracks PO i's worst path into a fresh slice, PI
// first.
func referencePath(r *sta.Report, c *netlist.Circuit, i int) []int {
	var rev []int
	for id := c.POs[i]; ; {
		rev = append(rev, id)
		fanin := c.Gates[id].Fanin
		if len(fanin) == 0 {
			break
		}
		best := fanin[0]
		for _, fi := range fanin[1:] {
			if r.Arrival[fi] > r.Arrival[best] {
				best = fi
			}
		}
		id = best
	}
	slices.Reverse(rev)
	return rev
}

// referenceCriticalGates is CriticalGates restated with a map seen set
// and a fresh path per PO.
func referenceCriticalGates(r *sta.Report, c *netlist.Circuit, margin float64) []int {
	thresh := r.CPD * (1 - margin)
	seen := make(map[int]bool)
	var out []int
	for i := range c.POs {
		if r.POArrival[i] < thresh {
			continue
		}
		for _, id := range referencePath(r, c, i) {
			if seen[id] || c.Gates[id].Func.IsPseudo() {
				continue
			}
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// TestCriticalGatesMatchesReference compares CriticalPathForPO on every PO
// and CriticalGates at margins 0, 0.05 and 0.1 with the references, on
// every TABLE I circuit and a LAC-mutated, resized c880.
func TestCriticalGatesMatchesReference(t *testing.T) {
	lib := cell.Default28nm()
	circuits := []*netlist.Circuit{approximated(t)}
	for _, name := range gen.Names() {
		circuits = append(circuits, gen.MustBuild(name))
	}
	for _, c := range circuits {
		r, err := sta.Analyze(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		for i := range c.POs {
			if got, want := r.CriticalPathForPO(c, i), referencePath(r, c, i); !slices.Equal(got, want) {
				t.Fatalf("%s PO %d: CriticalPathForPO = %v, reference %v", c.Name, i, got, want)
			}
		}
		for _, margin := range []float64{0, 0.05, 0.1} {
			got, want := r.CriticalGates(c, margin), referenceCriticalGates(r, c, margin)
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("%s margin %v: CriticalGates = %v, reference %v", c.Name, margin, got, want)
			}
		}
	}
	if r := (&sta.Report{}); r.CriticalPathForPO(netlist.New("empty"), 0) != nil {
		t.Error("CriticalPathForPO out of range must return nil")
	}
}
