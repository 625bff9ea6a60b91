package als_test

import (
	"context"
	"errors"
	"testing"

	als "repro"
	"repro/internal/trace"
)

// sameFlowResult compares the deterministic fields of two flow results
// exactly (Runtime is wall clock; Approx/Final/History are structural).
func sameFlowResult(t *testing.T, label string, a, b *als.FlowResult) {
	t.Helper()
	if a.RatioCPD != b.RatioCPD || a.Err != b.Err || a.Evaluations != b.Evaluations ||
		a.CPDOri != b.CPDOri || a.CPDFac != b.CPDFac ||
		a.AreaCon != b.AreaCon || a.AreaFinal != b.AreaFinal || a.AreaOri != b.AreaOri {
		t.Errorf("%s: results differ:\n  legacy  RatioCPD=%v Err=%v Evals=%d CPDFac=%v AreaCon=%v AreaFinal=%v\n  session RatioCPD=%v Err=%v Evals=%d CPDFac=%v AreaCon=%v AreaFinal=%v",
			label,
			a.RatioCPD, a.Err, a.Evaluations, a.CPDFac, a.AreaCon, a.AreaFinal,
			b.RatioCPD, b.Err, b.Evaluations, b.CPDFac, b.AreaCon, b.AreaFinal)
	}
}

// TestSessionEquivalentToFlowConfig is the v1↔v2 equivalence suite: every
// configuration expressible as a legacy FlowConfig must produce a
// bit-identical result through an option-built session at the same seed —
// including explicit spellings of the defaults (DepthWeight 0.8,
// AreaConRatio 1.0) and every optimizer family.
func TestSessionEquivalentToFlowConfig(t *testing.T) {
	lib := als.NewLibrary()
	cases := []struct {
		name    string
		circuit string
		cfg     als.FlowConfig
		opts    []als.Option
	}{
		{
			name:    "dcgwo defaults",
			circuit: "c880",
			cfg:     als.FlowConfig{Metric: als.MetricER, ErrorBudget: 0.05},
			opts:    []als.Option{als.WithMetric(als.MetricER), als.WithErrorBudget(0.05)},
		},
		{
			name:    "dcgwo explicit default weights",
			circuit: "Adder16",
			cfg: als.FlowConfig{Metric: als.MetricNMED, ErrorBudget: 0.0244,
				DepthWeight: 0.8, AreaConRatio: 1.0, Seed: 1},
			opts: []als.Option{als.WithMetric(als.MetricNMED), als.WithErrorBudget(0.0244),
				als.WithDepthWeight(0.8), als.WithAreaConRatio(1.0), als.WithSeed(1)},
		},
		{
			name:    "dcgwo overrides",
			circuit: "Max16",
			cfg: als.FlowConfig{Metric: als.MetricNMED, ErrorBudget: 0.0244, Seed: 7,
				DepthWeight: 0.6, AreaConRatio: 1.1, Population: 8, Iterations: 5, Vectors: 512},
			opts: []als.Option{als.WithMetric(als.MetricNMED), als.WithErrorBudget(0.0244),
				als.WithSeed(7), als.WithDepthWeight(0.6), als.WithAreaConRatio(1.1),
				als.WithPopulation(8), als.WithIterations(5), als.WithVectors(512)},
		},
		{
			name:    "greedy baseline",
			circuit: "c880",
			cfg:     als.FlowConfig{Metric: als.MetricER, ErrorBudget: 0.05, Method: als.MethodHEDALS, Seed: 3},
			opts: []als.Option{als.WithMetric(als.MetricER), als.WithErrorBudget(0.05),
				als.WithMethod(als.MethodHEDALS), als.WithSeed(3)},
		},
		{
			name:    "population baseline",
			circuit: "Adder16",
			cfg: als.FlowConfig{Metric: als.MetricNMED, ErrorBudget: 0.0244,
				Method: als.MethodSingleChaseGWO, Population: 6, Iterations: 3, Vectors: 512},
			opts: []als.Option{als.WithMetric(als.MetricNMED), als.WithErrorBudget(0.0244),
				als.WithMethod(als.MethodSingleChaseGWO), als.WithPopulation(6),
				als.WithIterations(3), als.WithVectors(512)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			legacy, err := als.Flow(als.Benchmark(tc.circuit), lib, tc.cfg)
			if err != nil {
				t.Fatalf("legacy flow: %v", err)
			}
			sess, err := als.NewSession(als.Benchmark(tc.circuit), lib, tc.opts...)
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			res, front, err := sess.Collect(context.Background())
			if err != nil {
				t.Fatalf("session run: %v", err)
			}
			sameFlowResult(t, tc.name, legacy, res)
			if len(front) < 1 {
				t.Error("session returned an empty front")
			}
		})
	}
}

// TestSessionExpressesZeroValues covers the settings the legacy
// FlowConfig could not express: DepthWeight 0 (pure-area fitness) and
// AreaConRatio 0 (tightest area budget). Both must run, resolve to a
// true zero rather than the paper default, and reproduce bit-identically.
func TestSessionExpressesZeroValues(t *testing.T) {
	lib := als.NewLibrary()
	run := func(opts ...als.Option) (*als.FlowResult, als.Front) {
		t.Helper()
		sess, err := als.NewSession(als.Benchmark("c880"), lib, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, front, err := sess.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, front
	}
	base := []als.Option{
		als.WithMetric(als.MetricER), als.WithErrorBudget(0.05),
		als.WithPopulation(6), als.WithIterations(3), als.WithVectors(512),
	}

	t.Run("zero area constraint", func(t *testing.T) {
		res, _ := run(append(base[:len(base):len(base)], als.WithAreaConRatio(0))...)
		if res.AreaCon != 0 {
			t.Errorf("AreaCon = %v, want the explicit 0 (legacy resolution would give %v)", res.AreaCon, res.AreaOri)
		}
		legacyish, _ := run(base...)
		if legacyish.AreaCon != legacyish.AreaOri {
			t.Errorf("default AreaCon = %v, want AreaOri %v", legacyish.AreaCon, legacyish.AreaOri)
		}
	})

	t.Run("zero depth weight", func(t *testing.T) {
		first, firstFront := run(append(base[:len(base):len(base)], als.WithDepthWeight(0))...)
		second, secondFront := run(append(base[:len(base):len(base)], als.WithDepthWeight(0))...)
		sameFlowResult(t, "wd=0 determinism", first, second)
		if len(firstFront) != len(secondFront) {
			t.Errorf("front sizes differ across identical runs: %d vs %d", len(firstFront), len(secondFront))
		}
	})
}

// TestSessionStreaming pins the stream contract: one progress event per
// optimizer iteration, at least one improved solution, and a final done
// event whose front is non-empty, sorted by RatioCPD, and within budget.
func TestSessionStreaming(t *testing.T) {
	const iterations = 4
	const budget = 0.05
	sess, err := als.NewSession(als.Benchmark("c880"), als.NewLibrary(),
		als.WithMetric(als.MetricER), als.WithErrorBudget(budget),
		als.WithPopulation(6), als.WithIterations(iterations), als.WithVectors(512))
	if err != nil {
		t.Fatal(err)
	}
	var progress, improved, done int
	var last als.EventKind
	for ev, err := range sess.Run(context.Background()) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		last = ev.Kind
		switch ev.Kind {
		case als.EventProgress:
			progress++
			if ev.Progress == nil || ev.Progress.Total != iterations {
				t.Fatalf("malformed progress event: %+v", ev.Progress)
			}
		case als.EventImproved:
			improved++
			if ev.Solution == nil || ev.Solution.Err > budget {
				t.Fatalf("improved solution outside budget: %+v", ev.Solution)
			}
		case als.EventDone:
			done++
			if ev.Result == nil || len(ev.Front) < 1 {
				t.Fatalf("done event without result/front: %+v", ev)
			}
			for i, sol := range ev.Front {
				if sol.Err > budget {
					t.Errorf("front[%d].Err = %v over budget %v", i, sol.Err, budget)
				}
				if i > 0 && sol.RatioCPD < ev.Front[i-1].RatioCPD {
					t.Errorf("front not sorted by RatioCPD at %d: %v < %v", i, sol.RatioCPD, ev.Front[i-1].RatioCPD)
				}
				if sol.Circuit == nil {
					t.Errorf("front[%d] has no circuit", i)
				}
			}
		}
	}
	if progress != iterations {
		t.Errorf("progress events = %d, want exactly %d (one per iteration)", progress, iterations)
	}
	if improved < 1 {
		t.Error("no improved-solution events")
	}
	if done != 1 || last != als.EventDone {
		t.Errorf("done events = %d (last kind %v), want exactly one, last", done, last)
	}
	if sess.Result() == nil || len(sess.Front()) < 1 || sess.Err() != nil || !sess.Done() {
		t.Errorf("post-run accessors inconsistent: result=%v front=%d err=%v done=%v",
			sess.Result(), len(sess.Front()), sess.Err(), sess.Done())
	}
}

// TestSessionEarlyBreakCancels: abandoning the stream cancels the run at
// its next iteration boundary.
func TestSessionEarlyBreakCancels(t *testing.T) {
	sess, err := als.NewSession(als.Benchmark("c880"), als.NewLibrary(),
		als.WithMetric(als.MetricER), als.WithErrorBudget(0.05),
		als.WithPopulation(6), als.WithIterations(8), als.WithVectors(512))
	if err != nil {
		t.Fatal(err)
	}
	for ev, err := range sess.Run(context.Background()) {
		if err != nil {
			t.Fatalf("stream error before break: %v", err)
		}
		if ev.Kind == als.EventProgress {
			break
		}
	}
	if !sess.Done() {
		t.Fatal("session not done after abandoning the stream")
	}
	if err := sess.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("session error = %v, want wrap of context.Canceled", err)
	}
	if sess.Result() != nil {
		t.Error("cancelled session still produced a result")
	}
}

// TestSessionSingleShot: a session runs exactly once.
func TestSessionSingleShot(t *testing.T) {
	sess, err := als.NewSession(als.Benchmark("c880"), als.NewLibrary(),
		als.WithMetric(als.MetricER), als.WithErrorBudget(0.05),
		als.WithPopulation(6), als.WithIterations(2), als.WithVectors(512))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, err = sess.Collect(context.Background())
	if !errors.Is(err, als.ErrSessionConsumed) {
		t.Errorf("second run error = %v, want ErrSessionConsumed", err)
	}
}

// TestSessionOptionValidation: invalid options fail at NewSession, not at
// Run.
func TestSessionOptionValidation(t *testing.T) {
	circuit := als.Benchmark("c880")
	cases := []struct {
		name string
		opt  als.Option
	}{
		{"negative budget", als.WithErrorBudget(-0.1)},
		{"depth weight above one", als.WithDepthWeight(1.5)},
		{"negative area ratio", als.WithAreaConRatio(-1)},
		{"tiny population", als.WithPopulation(2)},
		{"zero iterations", als.WithIterations(0)},
		{"tiny vectors", als.WithVectors(8)},
		{"zero top-K", als.WithTopK(0)},
		{"unknown method", als.WithMethod(als.Method(250))},
	}
	for _, tc := range cases {
		if _, err := als.NewSession(circuit, nil, tc.opt); err == nil {
			t.Errorf("%s: NewSession accepted an invalid option", tc.name)
		}
	}
	if _, err := als.NewSession(nil, nil); err == nil {
		t.Error("NewSession accepted a nil circuit")
	}
}

// TestFlowConfigRangesEveryMethod: a v1 FlowConfig outside the ranges the
// options enforce fails for every method, not only DCGWO. A negative
// budget used to let the baselines return the exact circuit as Best,
// whose error 0 exceeds it.
func TestFlowConfigRangesEveryMethod(t *testing.T) {
	circuit, lib := als.Benchmark("c880"), als.NewLibrary()
	cases := []struct {
		name   string
		mutate func(*als.FlowConfig)
	}{
		{"negative budget", func(c *als.FlowConfig) { c.ErrorBudget = -1 }},
		{"tiny population", func(c *als.FlowConfig) { c.Population = 3 }},
		{"tiny vectors", func(c *als.FlowConfig) { c.Vectors = 32 }},
		{"depth weight above one", func(c *als.FlowConfig) { c.DepthWeight = 2 }},
	}
	for _, m := range als.AllMethods() {
		for _, tc := range cases {
			cfg := als.FlowConfig{Metric: als.MetricER, ErrorBudget: 0.05, Method: m, Iterations: 2, Vectors: 256}
			tc.mutate(&cfg)
			if res, err := als.Flow(circuit, lib, cfg); err == nil {
				t.Errorf("%v, %s: flow succeeded (Best error %v)", m, tc.name, res.Err)
			}
		}
	}
}

// TestSessionTopKBoundsFront: the front honors WithTopK.
func TestSessionTopKBoundsFront(t *testing.T) {
	sess, err := als.NewSession(als.Benchmark("c880"), als.NewLibrary(),
		als.WithMetric(als.MetricER), als.WithErrorBudget(0.05),
		als.WithPopulation(8), als.WithIterations(4), als.WithVectors(512),
		als.WithTopK(1))
	if err != nil {
		t.Fatal(err)
	}
	_, front, err := sess.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 1 {
		t.Errorf("front size = %d, want 1 (TopK)", len(front))
	}
}

// TestSessionPostOptimizationSpans: the best's sizing pass runs under
// als.post_optimize with its move counts, and the other front members'
// passes run under one als.front span.
func TestSessionPostOptimizationSpans(t *testing.T) {
	sess, err := als.NewSession(als.Benchmark("c880"), als.NewLibrary(),
		als.WithMetric(als.MetricER), als.WithErrorBudget(0.05),
		als.WithPopulation(8), als.WithIterations(4), als.WithVectors(512))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Service: "test"})
	root := tr.StartRoot("test")
	_, front, err := sess.Collect(trace.ContextWith(context.Background(), root))
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]trace.SpanRecord{}
	for _, r := range tr.Snapshot() {
		byName[r.Name] = append(byName[r.Name], r)
	}
	post := byName["als.post_optimize"]
	if len(post) != 1 {
		t.Fatalf("als.post_optimize spans = %d, want 1", len(post))
	}
	for _, key := range []string{"trials", "upsized", "downsized", "removed_gates"} {
		if _, ok := post[0].Attrs[key].(int64); !ok {
			t.Errorf("als.post_optimize lacks %s: %v", key, post[0].Attrs)
		}
	}
	if post[0].Attrs["trials"].(int64) == 0 {
		t.Error("the best's sizing pass timed no trials")
	}
	fr := byName["als.front"]
	if len(fr) != 1 {
		t.Fatalf("als.front spans = %d, want 1", len(fr))
	}
	members, _ := fr[0].Attrs["members"].(int64)
	if members < 1 || int(members) < len(front)-1 {
		t.Errorf("als.front members = %d for a front of %d points", members, len(front))
	}
}

// TestBenchmarkByName: the non-panicking benchmark lookup and its
// sentinel.
func TestBenchmarkByName(t *testing.T) {
	c, err := als.BenchmarkByName("Adder16")
	if err != nil || c == nil {
		t.Fatalf("BenchmarkByName(Adder16) = %v, %v", c, err)
	}
	if c.Name != "Adder16" {
		t.Errorf("circuit name = %q", c.Name)
	}
	if _, err := als.BenchmarkByName("nope"); !errors.Is(err, als.ErrUnknownBenchmark) {
		t.Errorf("unknown name error = %v, want wrap of ErrUnknownBenchmark", err)
	}
}

// TestFrontHelpers covers the Front convenience methods.
func TestFrontHelpers(t *testing.T) {
	var empty als.Front
	if _, ok := empty.Best(); ok {
		t.Error("empty front reported a best solution")
	}
	f := als.Front{
		{RatioCPD: 0.9, Err: 0.01, Area: 100},
		{RatioCPD: 0.95, Err: 0.04, Area: 90},
	}
	if best, ok := f.Best(); !ok || best.RatioCPD != 0.9 {
		t.Errorf("Best = %v, %v", best, ok)
	}
	if tight := f.Within(0.02); len(tight) != 1 || tight[0].Err != 0.01 {
		t.Errorf("Within(0.02) = %v", tight)
	}
	if s := f.String(); s == "" {
		t.Error("empty String rendering")
	}
}
