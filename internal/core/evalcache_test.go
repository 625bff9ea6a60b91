package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// TestDuplicatesInFlightEvaluateOnce evaluates 16 clones of one LAC
// candidate as one batch at 4 workers, in two generations: each
// generation must look up 16 times and hit exactly 15 times, whichever
// worker claims the key first, and every clone must get the Individual a
// cache-less Evaluator computes. Run it under -race with -cpu 1,2,4.
func TestDuplicatesInFlightEvaluateOnce(t *testing.T) {
	base := gen.MustBuild("c880")
	base.Const0()
	base.Const1()
	// Enough vectors that an evaluation outlasts the other workers'
	// lookups.
	v := sim.Random(rand.New(rand.NewSource(5)), len(base.PIs), 1<<16)
	e, err := NewEvaluator(base, lib, MetricER, 0.8, v)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewEvaluator(base, lib, MetricER, 0.8, v)
	if err != nil {
		t.Fatal(err)
	}
	plain.SetCacheEnabled(false)
	e.SetMaxWorkers(4)
	rng := rand.New(rand.NewSource(6))
	for gen := 1; gen <= 2; gen++ {
		cand := base.Clone()
		lacMutate(cand, rng)
		lacMutate(cand, rng)
		want, err := plain.Evaluate(cand.Clone())
		if err != nil {
			t.Fatal(err)
		}
		clones := make([]*netlist.Circuit, 16)
		for i := range clones {
			clones[i] = cand.Clone()
		}
		e.BeginGeneration()
		inds, err := e.EvaluateBatch(clones)
		if err != nil {
			t.Fatal(err)
		}
		for i, ind := range inds {
			individualsEqual(t, fmt.Sprintf("generation %d, clone %d", gen, i), ind, want)
		}
		st := e.CacheStats()
		if st.Lookups != int64(16*gen) || st.Hits != int64(15*gen) {
			t.Fatalf("generation %d: %d hits of %d lookups, want %d of %d", gen, st.Hits, st.Lookups, 15*gen, 16*gen)
		}
	}
}

// TestCacheStatsMatchAcrossWorkers runs DCGWO at 1, 2 and 4 evaluation
// workers: with identical candidates in flight evaluated once, a run's
// cache counters, per iteration and in total, no longer depend on the
// scheduling. Run it under -race with -cpu 1,2,4.
func TestCacheStatsMatchAcrossWorkers(t *testing.T) {
	for _, r := range []struct {
		circuit string
		cfg     Config
	}{
		{"c880", quickConfig(MetricER, 0.05, 1)},
		{"Max16", quickConfig(MetricNMED, 0.0244, 2)},
		{"Cavlc", quickConfig(MetricER, 0.05, 3)},
	} {
		var want string
		for _, workers := range []int{1, 2, 4} {
			cfg := r.cfg
			cfg.EvalWorkers = workers
			opt, err := New(gen.MustBuild(r.circuit), lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := opt.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%+v", res.Cache)
			for _, h := range res.History {
				got += fmt.Sprintf(" %+v", h.Cache)
			}
			if res.Cache.Hits == 0 {
				t.Fatalf("%s: no cache hit: %s", r.circuit, got)
			}
			if workers == 1 {
				want = got
			} else if got != want {
				t.Fatalf("%s seed %d: %d workers count %s, 1 worker %s", r.circuit, cfg.Seed, workers, got, want)
			}
		}
	}
}

// TestFailedFlightReleasesWaiters checks the claim protocol head on: a
// lookup of a claimed key waits for its owner; an owner that fails
// releases it to claim the key itself; an owner that may not insert
// because of the byte cap releases it to evaluate unclaimed; an owner
// that inserts answers it with its template. A whole batch of one failing
// candidate (an unsupported gate function, still in the base's ID space,
// so cacheable) must return the error and leave no goroutine behind.
func TestFailedFlightReleasesWaiters(t *testing.T) {
	c := newEvalCache()
	key := []byte("k")
	// wait looks the key up on another goroutine and checks that the
	// lookup blocks.
	wait := func() (chan *evalTemplate, chan *flight) {
		ts, fs := make(chan *evalTemplate, 1), make(chan *flight, 1)
		go func() {
			tm, f := c.get(key)
			ts <- tm
			fs <- f
		}()
		select {
		case <-fs:
			t.Fatal("a lookup of a claimed key did not wait")
		case <-time.After(20 * time.Millisecond):
		}
		return ts, fs
	}
	// A failed owner: the waiter claims.
	tm, owner := c.get(key)
	if tm != nil || owner == nil {
		t.Fatalf("first lookup: template %v, flight %v; want a claim", tm, owner)
	}
	ts, fs := wait()
	c.put(key, owner, nil)
	if tm, f := <-ts, <-fs; tm != nil || f == nil || f == owner {
		t.Fatalf("after a failure: template %v, flight %v; want a fresh claim", tm, f)
	}
	// An owner at the byte cap: the waiter evaluates unclaimed.
	owner = c.memo[string(key)]
	ts, fs = wait()
	c.bytes = evalCacheMaxBytes
	c.put(key, owner, &evalTemplate{})
	if tm, f := <-ts, <-fs; tm != nil || f != nil {
		t.Fatalf("at the cap: template %v, flight %v; want neither", tm, f)
	}
	// An owner that inserts: the waiter hits.
	c.reset()
	_, owner = c.get(key)
	ts, fs = wait()
	want := &evalTemplate{fit: 1}
	c.put(key, owner, want)
	if tm, f := <-ts, <-fs; tm != want || f != nil {
		t.Fatalf("after an insert: template %v, flight %v; want the owner's template", tm, f)
	}

	base := adder8()
	base.Const0()
	base.Const1()
	e, err := NewEvaluator(base, lib, MetricER, 0.8, sim.Random(rand.New(rand.NewSource(1)), len(base.PIs), 256))
	if err != nil {
		t.Fatal(err)
	}
	e.SetMaxWorkers(4)
	bad := base.Clone()
	for id, g := range bad.Gates {
		if !g.Func.IsPseudo() {
			g.Func = 200
			bad.SetGate(id, g)
			break
		}
	}
	before := runtime.NumGoroutine()
	clones := make([]*netlist.Circuit, 16)
	for i := range clones {
		clones[i] = bad.Clone()
	}
	if _, err := e.EvaluateBatch(clones); err == nil {
		t.Fatal("a batch of failing candidates succeeded")
	}
	assertStopped(t, e, 4, before)
}

// fuzzEvalCircuits are the gen circuits FuzzCachedEvaluator draws from.
var fuzzEvalCircuits = []string{"c880", "Cavlc", "Max16", "Adder16", "Int2float", "c1908"}

// sameBits reports whether two Individuals agree in every evaluated field
// bit for bit.
func sameBits(a, b *Individual) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Fit, b.Fit) && eq(a.Delay, b.Delay) && a.Depth == b.Depth && eq(a.Area, b.Area) && eq(a.Err, b.Err) &&
		slices.EqualFunc(a.PerPO, b.PerPO, eq) && slices.EqualFunc(a.POArrival, b.POArrival, eq)
}

// FuzzCachedEvaluator is the differential oracle of the evaluation
// cache: circuit picks one of fuzzEvalCircuits, seed the input sample and
// a pool of four candidates (chains of zero to three LACs on the accurate
// circuit), vectors a sample size from 64 to 4096, workers the cached
// Evaluator's worker count (1–4, low two bits) and metric (bit 2), and
// each byte of batch one candidate, a clone of pool member byte&3; a byte
// with bit 7 set begins a new generation first. Each generation is one
// EvaluateBatch through a cached and a cache-less Evaluator, whose
// Individuals must agree bit for bit; and since identical candidates in
// flight are evaluated once, the cached one's hits must equal its
// lookups minus each generation's distinct change sets.
func FuzzCachedEvaluator(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(1984), uint8(3), []byte{0, 0, 1, 1, 2, 0x80, 3, 3, 0, 1})
	f.Add(uint8(2), int64(5), uint16(1000), uint8(7), []byte{1, 1, 1, 1, 1, 1, 1, 1, 0x82, 2, 2, 0, 0})
	f.Add(uint8(3), int64(9), uint16(0), uint8(1), []byte{3, 2, 1, 0, 0x83, 0x80, 0x81})
	f.Fuzz(func(t *testing.T, circuit uint8, seed int64, vectors uint16, workers uint8, batch []byte) {
		base := gen.MustBuild(fuzzEvalCircuits[int(circuit)%len(fuzzEvalCircuits)])
		base.Const0()
		base.Const1()
		rng := rand.New(rand.NewSource(seed))
		v := sim.Random(rng, len(base.PIs), 64+int(vectors)%4033)
		metric := Metric(workers >> 2 & 1)
		cached, err := NewEvaluator(base, lib, metric, 0.8, v)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewEvaluator(base, lib, metric, 0.8, v)
		if err != nil {
			t.Fatal(err)
		}
		plain.SetCacheEnabled(false)
		cached.SetMaxWorkers(1 + int(workers&3))
		var pool [4]*netlist.Circuit
		for i := range pool {
			pool[i] = base.Clone()
			for k := i; k > 0; k-- {
				lacMutate(pool[i], rng)
			}
		}
		distinct := 0
		generation := func(picks []byte) {
			if len(picks) == 0 {
				return
			}
			var cands, twins []*netlist.Circuit
			keys := map[string]bool{}
			for _, b := range picks {
				cands, twins = append(cands, pool[b&3].Clone()), append(twins, pool[b&3].Clone())
				_, key, _ := cached.candidateDiff(pool[b&3], nil)
				keys[string(key)] = true
			}
			distinct += len(keys)
			cached.BeginGeneration()
			got, err := cached.EvaluateBatch(cands)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.EvaluateBatch(twins)
			if err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("candidate %d (pool member %d): cached %+v, uncached %+v", i, picks[i]&3, got[i], want[i])
				}
			}
		}
		batch = batch[:min(len(batch), 64)]
		start := 0
		for i, b := range batch {
			if b&0x80 != 0 {
				generation(batch[start:i])
				start = i
			}
		}
		generation(batch[start:])
		if st := cached.CacheStats(); st.Fallbacks != 0 || st.Hits != st.Lookups-int64(distinct) {
			t.Fatalf("%+v with %d distinct change sets", st, distinct)
		}
	})
}
