package main

// The benchmark's own determinism check: a shortened version of each
// workload, run twice at one seed, must generate identical inputs and
// produce an identical ratio_cpd_geomean and identical per-flow
// evaluation counts; another seed must generate different inputs.
//
//	cd e2ebench && go test ./...
//
// The cluster case builds alsd and alscoord from the enclosing checkout.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	als "repro"
)

func TestFlowInputsDeterministic(t *testing.T) {
	for _, w := range []flowWorkload{quickWorkload(), paperWorkload()} {
		a, b := w.list(7, 20), w.list(7, 20)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew two different lists", w.name)
		}
		if reflect.DeepEqual(a, w.list(8, 20)) {
			t.Errorf("%s: seeds 7 and 8 drew the same list", w.name)
		}
		if len(a)%len(w.cells) != 0 {
			t.Errorf("%s: %d flows is not a whole number of passes over %d cells", w.name, len(a), len(w.cells))
		}
	}
}

func TestClusterInputsDeterministic(t *testing.T) {
	a, b := drawCluster(7, 5), drawCluster(7, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 7 drew two different cluster schedules")
	}
	if reflect.DeepEqual(a, drawCluster(8, 5)) {
		t.Error("seeds 7 and 8 drew the same cluster schedule")
	}
	seen := map[string]bool{}
	for _, r := range append(a.warm, a.sched...) {
		for _, h := range r.hashes {
			if !r.hit && seen[h] {
				t.Fatalf("fresh cell %s drawn twice", h)
			}
			seen[h] = true
		}
	}
}

// flowOutcome runs the first n flows of a workload's list.
func flowOutcome(t *testing.T, w flowWorkload, seed int64, n int) (geo float64, evals []int) {
	t.Helper()
	lib := als.NewLibrary()
	var pass flowPass
	var areas areaTally
	for _, it := range w.list(seed, 1)[:n] {
		c, err := als.BenchmarkByName(it.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		r := timeFlow(context.Background(), c, lib, it, w.scale)
		if r.err == nil {
			r.err = checkFlow(c, lib, it, w.vectors, r.res, r.front, &areas)
		}
		if r.err != nil {
			t.Fatalf("%s: %v", it, r.err)
		}
		pass.add(r)
		evals = append(evals, r.res.Evaluations)
	}
	return geomean(pass.ratios), evals
}

func TestFlowRunsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		w flowWorkload
		n int
	}{{quickWorkload(), 12}, {paperWorkload(), 2}} {
		if testing.Short() && tc.w.scale == als.ScalePaper {
			continue
		}
		g1, e1 := flowOutcome(t, tc.w, 3, tc.n)
		g2, e2 := flowOutcome(t, tc.w, 3, tc.n)
		if g1 != g2 || !reflect.DeepEqual(e1, e2) {
			t.Errorf("%s: two runs at seed 3 gave geomean %v vs %v, evaluations %v vs %v", tc.w.name, g1, g2, e1, e2)
		}
	}
}

// clusterOutcome runs a shortened cluster-mixed schedule on a fresh trio.
func clusterOutcome(t *testing.T, bins string, seed int64) (geo float64, evals []int) {
	t.Helper()
	in := drawCluster(seed, 1)
	in.warm = in.warm[:2]
	rep := newReport()
	s := &clusterSession{cfg: config{seed: seed}, in: in, bins: bins, stored: map[string][]byte{}, rep: rep}
	for _, sp := range in.hits {
		res, err := runSpec(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := json.Marshal(res)
		h := contentHash(sp)
		s.keys, s.vals, s.stored[h] = append(s.keys, h), append(s.vals, raw), raw
	}
	var err error
	if s.sink, err = startSink(); err != nil {
		t.Fatal(err)
	}
	defer s.sink.close()
	s.client = newClient()
	tr, err := s.setup(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := s.timed(tr)
	tr.stop()
	if err != nil {
		t.Fatal(err)
	}
	s.check(cr)
	if rep.failed > 0 {
		t.Fatalf("%d failed checks", rep.failed)
	}
	var ratios []float64
	for _, res := range freshResults(cr.sched.reqs) {
		ratios = append(ratios, res.RatioCPD)
		evals = append(evals, res.Evaluations)
	}
	return geomean(ratios), evals
}

func TestClusterRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two clusters")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skip("not inside a checkout of the program")
	}
	bins := t.TempDir()
	if err := buildDaemons(root, bins); err != nil {
		t.Fatal(err)
	}
	g1, e1 := clusterOutcome(t, bins, 5)
	g2, e2 := clusterOutcome(t, bins, 5)
	if g1 != g2 || !reflect.DeepEqual(e1, e2) {
		t.Errorf("two cluster runs at seed 5 gave geomean %v vs %v, evaluations %v vs %v", g1, g2, e1, e2)
	}
}
