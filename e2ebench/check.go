package main

import (
	"fmt"
	"math"
	"math/rand"

	als "repro"
	"repro/internal/cell"
	"repro/internal/errest"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// checkFlow re-derives a flow's reported figures from scratch: it
// rebuilds the Monte-Carlo sample from the flow's seed exactly as the
// optimizers do (constant-materialized clone, then sim.Random on a fresh
// rand.Source), measures error with a full plain simulation, delay with a
// full STA and area with Circuit.Area, and requires every reported number
// to match bit for bit and to meet the constraints. Every front point is
// checked the same way.
//
// Area is the one exception to bit-exactness: sizing.PostOptimize reports
// a running sum (the compacted netlist's area plus each accepted move's
// delta), while Circuit.Area sums the final gates in ID order, and the two
// orders round differently. Area is therefore matched within the
// worst-case rounding error of those two sums (see areaMatches), far below
// any single cell's area; areas counts how often it was needed.
func checkFlow(accurate *netlist.Circuit, lib *cell.Library, it flowItem, vectors int, res *als.FlowResult, front als.Front, areas *areaTally) error {
	base := accurate.Clone()
	base.Const0()
	base.Const1()
	rng := rand.New(rand.NewSource(it.Seed))
	est, err := errest.New(base, sim.Random(rng, len(base.PIs), vectors))
	if err != nil {
		return err
	}
	errOf := func(c *netlist.Circuit) (float64, error) {
		m, _, err := est.Evaluate(c)
		if it.Metric == als.MetricER {
			return m.ER, err
		}
		return m.NMED, err
	}
	ref, err := sta.Analyze(accurate, lib)
	if err != nil {
		return err
	}
	ratioOf := func(cpd float64) float64 {
		if ref.CPD > 0 {
			return cpd / ref.CPD
		}
		return 1
	}
	if ref.CPD != res.CPDOri {
		return fmt.Errorf("CPDOri %v, full STA gives %v", res.CPDOri, ref.CPD)
	}
	if areaCon := accurate.Area(lib); areaCon != res.AreaCon {
		return fmt.Errorf("AreaCon %v, accurate area is %v", res.AreaCon, areaCon)
	}
	for _, c := range []struct {
		name string
		c    *netlist.Circuit
	}{{"Approx", res.Approx}, {"Final", res.Final}} {
		e, err := errOf(c.c)
		if err != nil {
			return err
		}
		if e != res.Err {
			return fmt.Errorf("Err %v, full simulation of %s gives %v", res.Err, c.name, e)
		}
	}
	fin, err := sta.Analyze(res.Final, lib)
	if err != nil {
		return err
	}
	if fin.CPD != res.CPDFac || ratioOf(fin.CPD) != res.RatioCPD {
		return fmt.Errorf("CPDFac %v RatioCPD %v, full STA gives %v (%v)", res.CPDFac, res.RatioCPD, fin.CPD, ratioOf(fin.CPD))
	}
	if a := res.Final.Area(lib); !areas.matches(res.AreaFinal, a, res.Final) {
		return fmt.Errorf("AreaFinal %v, Final's area is %v", res.AreaFinal, a)
	}
	if res.Err > it.Budget || res.AreaFinal > res.AreaCon {
		return fmt.Errorf("constraint violated: Err %v (budget %v), AreaFinal %v (AreaCon %v)", res.Err, it.Budget, res.AreaFinal, res.AreaCon)
	}
	headline := false
	for i, sol := range front {
		e, err := errOf(sol.Circuit)
		if err != nil {
			return err
		}
		rep, err := sta.Analyze(sol.Circuit, lib)
		if err != nil {
			return err
		}
		if e != sol.Err || rep.CPD != sol.CPD || ratioOf(rep.CPD) != sol.RatioCPD || !areas.matches(sol.Area, sol.Circuit.Area(lib), sol.Circuit) {
			return fmt.Errorf("front[%d] reports err %v cpd %v ratio %v area %v; re-evaluation gives %v %v %v %v",
				i, sol.Err, sol.CPD, sol.RatioCPD, sol.Area, e, rep.CPD, ratioOf(rep.CPD), sol.Circuit.Area(lib))
		}
		if sol.Err > it.Budget || sol.Area > res.AreaCon {
			return fmt.Errorf("front[%d] violates a constraint: err %v area %v", i, sol.Err, sol.Area)
		}
		headline = headline || (sol.RatioCPD == res.RatioCPD && sol.Err == res.Err && sol.Area == res.AreaFinal)
	}
	if !headline {
		return fmt.Errorf("front of %d points does not contain the reported result", len(front))
	}
	return nil
}

// areaTally counts the area comparisons and the ones that matched only
// within rounding, not bit for bit.
type areaTally struct{ checked, inexact int }

// matches compares a reported area with a fresh Circuit.Area of the same
// netlist. Each side is a float sum of at most n = gates + 300 positive
// terms (300 caps PostOptimize's moves), so each lies within
// (n-1)·2⁻⁵³·area of the exact sum, and they may differ by twice that.
func (t *areaTally) matches(reported, fresh float64, c *netlist.Circuit) bool {
	t.checked++
	if reported == fresh {
		return true
	}
	t.inexact++
	n := float64(c.NumGates() + 300)
	return math.Abs(reported-fresh) <= 2*n*0x1p-53*math.Abs(fresh)
}
