package als

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baselines"
	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/sizing"
	"repro/internal/sta"
	"repro/internal/trace"
)

// EventKind tags one element of a session's Run stream.
type EventKind uint8

const (
	// EventProgress reports one completed optimizer iteration (DCGWO) or
	// round (baselines); a run emits exactly one per iteration.
	EventProgress EventKind = iota + 1
	// EventImproved reports a new best feasible solution the moment the
	// optimizer finds it. The solution is pre-post-optimization: its
	// RatioCPD and Area are upper bounds on the final values.
	EventImproved
	// EventDone is the final event of a successful run, carrying the
	// FlowResult and the trade-off Front. It is always the last event.
	EventDone
)

// String names the event kind ("progress", "improved", "done").
func (k EventKind) String() string {
	switch k {
	case EventProgress:
		return "progress"
	case EventImproved:
		return "improved"
	case EventDone:
		return "done"
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one element of Session.Run's stream. Exactly one payload
// field is populated, selected by Kind.
type Event struct {
	Kind EventKind
	// Progress is set for EventProgress.
	Progress *FlowProgress
	// Solution is set for EventImproved.
	Solution *Solution
	// Result and Front are set for EventDone.
	Result *FlowResult
	Front  Front
	// Stats is set for EventDone: the run's evaluation-cache counters
	// (a copy of Result.Cache, surfaced separately so stream consumers
	// need not reach into the FlowResult).
	Stats *EvalCacheStats
}

// Session is one configured, single-shot flow execution — the v2 entry
// point of the package. Where the legacy Flow call collapses a run to a
// single FlowResult, a session streams the run (per-iteration progress,
// every improved solution as it is found) and ends with the optimizer's
// whole delay/area trade-off front:
//
//	circuit, err := als.BenchmarkByName("Adder16")
//	sess, err := als.NewSession(circuit, als.NewLibrary(),
//		als.WithMetric(als.MetricNMED), als.WithErrorBudget(0.0244))
//	for ev, err := range sess.Run(ctx) {
//		...
//	}
//
// A session runs once: Run's stream, then Result/Front/Err, describe that
// one execution. Results are bit-identical to the legacy Flow call at the
// same effective configuration and seed — Flow is now a thin shim over
// the same engine.
type Session struct {
	circuit *netlist.Circuit
	lib     *cell.Library
	cfg     FlowConfig // resolved; explicit zeros already honored
	topK    int

	started atomic.Bool
	mu      sync.Mutex
	done    bool
	result  *FlowResult
	front   Front
	err     error
}

// NewSession validates the options eagerly and prepares a flow run on a
// private clone of the circuit (so one accurate netlist can safely feed
// many concurrent sessions). A nil lib selects the default library.
func NewSession(circuit *netlist.Circuit, lib *cell.Library, opts ...Option) (*Session, error) {
	if circuit == nil {
		return nil, errors.New("als: nil circuit")
	}
	if lib == nil {
		lib = NewLibrary()
	}
	sc := sessionConfig{topK: DefaultTopK}
	for _, opt := range opts {
		if err := opt(&sc); err != nil {
			return nil, err
		}
	}
	return &Session{
		circuit: circuit.Clone(),
		lib:     lib,
		cfg:     sc.resolved(),
		topK:    sc.topK,
	}, nil
}

// Run executes the flow, streaming events as they happen: one
// EventProgress per optimizer iteration, one EventImproved per new best
// feasible solution, and a final EventDone carrying the FlowResult and
// the Front. A failed run yields a single terminal (Event{}, err) pair
// instead of EventDone. Breaking out of the loop cancels the run at its
// next iteration boundary: the session's Err then wraps context.Canceled
// — unless the optimizer had already passed its last cancellation check,
// in which case the run completes and Result/Front are populated with
// Err nil, exactly as if the stream had been drained. A second Run
// yields ErrSessionConsumed.
func (s *Session) Run(ctx context.Context) iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		if !s.started.CompareAndSwap(false, true) {
			yield(Event{}, ErrSessionConsumed)
			return
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		stopped := false
		emit := func(ev Event) {
			if stopped {
				return
			}
			if !yield(ev, nil) {
				stopped = true
				cancel()
			}
		}
		res, front, err := runFlow(runCtx, s.circuit, s.lib, s.cfg, runHooks{
			progress: func(p FlowProgress) {
				emit(Event{Kind: EventProgress, Progress: &p})
			},
			improved: func(sol Solution) {
				emit(Event{Kind: EventImproved, Solution: &sol})
			},
			wantFront: true,
			topK:      s.topK,
		})
		s.mu.Lock()
		s.done, s.result, s.front, s.err = true, res, front, err
		s.mu.Unlock()
		if stopped {
			return
		}
		if err != nil {
			yield(Event{}, err)
			return
		}
		stats := res.Cache
		yield(Event{Kind: EventDone, Result: res, Front: front, Stats: &stats}, nil)
	}
}

// Collect runs the session to completion, discarding intermediate events,
// and returns the final result and front — the non-streaming convenience
// form of Run.
func (s *Session) Collect(ctx context.Context) (*FlowResult, Front, error) {
	for ev, err := range s.Run(ctx) {
		if err != nil {
			return nil, nil, err
		}
		if ev.Kind == EventDone {
			return ev.Result, ev.Front, nil
		}
	}
	return nil, nil, s.Err()
}

// Done reports whether the session's run has finished (successfully or
// not).
func (s *Session) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// Result returns the finished run's FlowResult (nil until EventDone, or
// forever if the run failed).
func (s *Session) Result() *FlowResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result
}

// Front returns the finished run's trade-off front (nil until EventDone,
// or forever if the run failed).
func (s *Session) Front() Front {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.front
}

// Err returns the finished run's error (nil while running and after a
// successful run).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// runHooks are the observation points runFlow offers its callers. Every
// hook draws no randomness and observes no mutable optimizer state, so an
// instrumented run is bit-identical to a bare one — which is why the v1
// Flow shims and the v2 streaming sessions can share this one engine.
type runHooks struct {
	progress  func(FlowProgress)
	improved  func(Solution)
	wantFront bool
	topK      int
}

// runFlow is the engine behind Flow, FlowContext and Session.Run: the
// complete three-step framework (representation → optimization →
// post-optimization) on an already-resolved FlowConfig. When
// hooks.wantFront is set it additionally post-optimizes the optimizer's
// feasible non-dominated set (capped at topK) into a Front.
func runFlow(ctx context.Context, accurate *netlist.Circuit, lib *cell.Library, cfg FlowConfig, hooks runHooks) (*FlowResult, Front, error) {
	ref, err := sta.Analyze(accurate, lib)
	if err != nil {
		return nil, nil, fmt.Errorf("als: accurate circuit: %w", err)
	}
	areaOri := accurate.Area(lib)
	areaCon := areaOri * cfg.AreaConRatio
	refCPD := ref.CPD
	if refCPD <= 0 {
		refCPD = 1 // degenerate PI→PO netlist: keep ratios finite
	}

	// Translate optimizer-level iteration stats into flow-level progress
	// (delay expressed as a ratio against the accurate circuit's CPD).
	var progress func(core.IterStats)
	if hooks.progress != nil {
		total := cfg.Iterations
		progress = func(st core.IterStats) {
			hooks.progress(FlowProgress{
				Iter:         st.Iter,
				Total:        total,
				BestRatioCPD: st.BestDelay / refCPD,
				BestErr:      st.BestErr,
				Evaluations:  st.Evaluations,
			})
		}
	}
	// When a trace span rides in on ctx, every optimizer iteration becomes
	// a retroactive child span ("previous checkpoint to this one") carrying
	// that generation's evaluation and cache deltas. The wrapper draws no
	// randomness and observes only the stats the hook already receives, so
	// a traced run stays bit-identical to a bare one.
	if parent := trace.FromContext(ctx); parent != nil {
		inner := progress
		genStart := time.Now()
		var prev core.IterStats
		progress = func(st core.IterStats) {
			now := time.Now()
			sp := parent.StartChildAt("als.generation", genStart)
			sp.SetAttr("iter", st.Iter)
			sp.SetAttr("best_fit", st.BestFit)
			sp.SetAttr("best_err", st.BestErr)
			sp.SetAttr("evaluations", st.Evaluations-prev.Evaluations)
			sp.SetAttr("cache_lookups", st.Cache.Lookups-prev.Cache.Lookups)
			sp.SetAttr("cache_hits", st.Cache.Hits-prev.Cache.Hits)
			sp.SetAttr("cache_fallbacks", st.Cache.Fallbacks-prev.Cache.Fallbacks)
			sp.EndAt(now)
			genStart, prev = now, st
			if inner != nil {
				inner(st)
			}
		}
	}
	var onImproved func(*core.Individual)
	if hooks.improved != nil {
		onImproved = func(ind *core.Individual) {
			hooks.improved(Solution{
				RatioCPD: ind.Delay / refCPD,
				Err:      ind.Err,
				Area:     ind.Area,
				CPD:      ind.Delay,
				Circuit:  ind.Circuit,
			})
		}
	}

	start := time.Now()
	var best *core.Individual
	var coreFront []*core.Individual
	var history []core.IterStats
	var cache core.CacheStats
	evaluations := 0
	if cfg.Method == MethodDCGWO {
		ccfg := core.DefaultConfig(cfg.Metric, cfg.ErrorBudget)
		ccfg.PopulationSize = cfg.Population
		ccfg.MaxIter = cfg.Iterations
		ccfg.Vectors = cfg.Vectors
		ccfg.DepthWeight = cfg.DepthWeight
		ccfg.EvalWorkers = cfg.EvalWorkers
		ccfg.Progress = progress
		ccfg.OnImproved = onImproved
		ccfg.Seed = cfg.Seed
		opt, err := core.New(accurate, lib, ccfg)
		if err != nil {
			return nil, nil, err
		}
		res, err := opt.RunContext(ctx)
		if err != nil {
			return nil, nil, err
		}
		best, coreFront, history, evaluations = res.Best, res.Front, res.History, res.Evaluations
		cache = res.Cache
	} else {
		bcfg := baselines.DefaultConfig(cfg.Metric, cfg.ErrorBudget)
		bcfg.Rounds = cfg.Iterations
		bcfg.Population = cfg.Population
		bcfg.Vectors = cfg.Vectors
		bcfg.DepthWeight = cfg.DepthWeight
		bcfg.EvalWorkers = cfg.EvalWorkers
		bcfg.Progress = progress
		bcfg.OnImproved = onImproved
		bcfg.Seed = cfg.Seed
		method := map[Method]baselines.Method{
			MethodVecbeeSasimi:   baselines.VecbeeSasimi,
			MethodVaACS:          baselines.VaACS,
			MethodHEDALS:         baselines.HEDALS,
			MethodSingleChaseGWO: baselines.SingleChaseGWO,
		}[cfg.Method]
		res, err := baselines.RunContext(ctx, method, accurate, lib, bcfg)
		if err != nil {
			return nil, nil, err
		}
		best, coreFront, evaluations = res.Best, res.Front, res.Evaluations
		cache = res.Cache
	}
	if best == nil {
		return nil, nil, fmt.Errorf("%w (budget %v)", ErrInfeasible, cfg.ErrorBudget)
	}

	postSpan := trace.FromContext(ctx).StartChild("als.post_optimize")
	post, err := sizing.PostOptimize(best.Circuit, lib, sizing.Options{AreaCon: areaCon})
	if err == nil && postSpan != nil { // boxing the values would allocate
		postSpan.SetAttr("trials", post.Trials)
		postSpan.SetAttr("upsized", post.Upsized)
		postSpan.SetAttr("downsized", post.Downsized)
		postSpan.SetAttr("removed_gates", post.RemovedGates)
	}
	postSpan.End()
	if err != nil {
		return nil, nil, err
	}

	var front Front
	if hooks.wantFront {
		front, err = buildFront(ctx, coreFront, best, post, lib, areaCon, ref.CPD, hooks.topK)
		if err != nil {
			return nil, nil, err
		}
	}
	elapsed := time.Since(start)

	ratio := 1.0
	if ref.CPD > 0 {
		ratio = post.Report.CPD / ref.CPD
	}
	return &FlowResult{
		Circuit:     accurate.Name,
		Method:      cfg.Method,
		CPDOri:      ref.CPD,
		AreaOri:     areaOri,
		CPDFac:      post.Report.CPD,
		RatioCPD:    ratio,
		AreaCon:     areaCon,
		AreaFinal:   post.Area,
		Err:         best.Err,
		Runtime:     elapsed,
		Evaluations: evaluations,
		Approx:      best.Circuit,
		Final:       post.Circuit,
		History:     history,
		Cache:       evalCacheStatsFrom(cache),
	}, front, nil
}

// buildFront post-optimizes the optimizer's feasible non-dominated set
// (truncated to its topK fittest members, with best always retained) and
// sorts the resulting solutions by ascending RatioCPD. Post-optimization
// is deterministic, so the front never perturbs the run it summarizes.
// The members other than best, whose pass the caller already ran, are
// post-optimized under one als.front span.
func buildFront(ctx context.Context, members []*core.Individual, best *core.Individual, bestPost *sizing.Result,
	lib *cell.Library, areaCon, refCPD float64, topK int) (Front, error) {

	if topK < 1 {
		topK = DefaultTopK
	}
	if len(members) > topK {
		kept := append([]*core.Individual(nil), members[:topK]...)
		found := false
		for _, ind := range kept {
			if ind == best {
				found = true
				break
			}
		}
		if !found {
			kept[topK-1] = best
		}
		members = kept
	}
	if len(members) == 0 {
		members = []*core.Individual{best}
	}
	span := trace.FromContext(ctx).StartChild("als.front")
	defer span.End()
	front := make(Front, 0, len(members))
	others := 0
	for _, ind := range members {
		post := bestPost
		if ind != best {
			others++
			var err error
			post, err = sizing.PostOptimize(ind.Circuit, lib, sizing.Options{AreaCon: areaCon})
			if err != nil {
				return nil, err
			}
		}
		ratio := 1.0
		if refCPD > 0 {
			ratio = post.Report.CPD / refCPD
		}
		front = append(front, Solution{
			RatioCPD: ratio,
			Err:      ind.Err,
			Area:     post.Area,
			CPD:      post.Report.CPD,
			Circuit:  post.Circuit,
		})
	}
	span.SetAttr("members", others)
	// Sort by the headline metric and collapse post-optimization
	// duplicates (distinct optimizer circuits can resize to the same
	// point).
	sort.SliceStable(front, func(i, j int) bool { return frontLess(front[i], front[j]) })
	dedup := front[:0]
	for _, s := range front {
		if n := len(dedup); n > 0 &&
			dedup[n-1].RatioCPD == s.RatioCPD && dedup[n-1].Err == s.Err && dedup[n-1].Area == s.Area {
			continue
		}
		dedup = append(dedup, s)
	}
	return dedup, nil
}

func frontLess(a, b Solution) bool {
	if a.RatioCPD != b.RatioCPD {
		return a.RatioCPD < b.RatioCPD
	}
	if a.Err != b.Err {
		return a.Err < b.Err
	}
	return a.Area < b.Area
}
