// Package baselines implements the four comparison methods of the paper's
// evaluation as strategies over DCGWO's own substrate, core.Optimizer:
// one set-up (core.New: the constant-materialized base, the Monte-Carlo
// vectors, the Evaluator with its selection memo), one initial population,
// one searching action and one evaluation pipeline, so the experiments
// compare optimizer strategies and nothing else:
//
//   - VECBEE-SASIMI [Su et al., TCAD'22]: area-driven greedy
//     substitution — repeatedly apply the highest-similarity LAC with the
//     best area saving that keeps the error within budget.
//   - VaACS [Balaskas et al., TCSI'22]: genetic optimization of
//     approximate circuits, depth-driven fitness.
//   - HEDALS [Meng et al., TCAD'23]: delay-driven greedy — apply the LAC
//     on the critical path with the best delay reduction under the error
//     budget.
//   - Single-chase GWO [Mirjalili et al.]: the traditional grey wolf
//     optimizer with one guidance hierarchy and plain fitness-truncation
//     selection (no population division, no non-dominated sorting).
//
// A run takes a core.Config: MaxIter bounds the greedy rounds, GA
// generations and GWO iterations, PopulationSize is the GA and GWO
// population. The baselines keep their own search parameters: Tc within
// 5% of the CPD, one Tc draw per searching action and one LAC per initial
// individual. VaACS's mutants and GWO's children are queued on the
// Evaluator's pipeline the moment they are drawn, as DCGWO's are; a greedy
// round is one pipeline batch (core.Evaluator.EvaluateRound).
package baselines

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sta"
)

// Method identifies one baseline optimizer.
type Method uint8

const (
	// VecbeeSasimi is the area-driven greedy method.
	VecbeeSasimi Method = iota
	// VaACS is the genetic depth-driven method.
	VaACS
	// HEDALS is the delay-driven greedy method.
	HEDALS
	// SingleChaseGWO is the traditional grey wolf optimizer.
	SingleChaseGWO
)

// String names the method as in the paper's tables.
func (m Method) String() string {
	switch m {
	case VecbeeSasimi:
		return "VECBEE-S"
	case VaACS:
		return "VaACS"
	case HEDALS:
		return "HEDALS"
	case SingleChaseGWO:
		return "GWO (single-chase)"
	}
	return fmt.Sprintf("Method(%d)", uint8(m))
}

// Methods lists all baselines in the tables' column order.
func Methods() []Method { return []Method{VecbeeSasimi, VaACS, HEDALS, SingleChaseGWO} }

const (
	// critMargin widens Tc, and HEDALS's target pool, to paths within 5%
	// of the CPD.
	critMargin = 0.05
	// candidatesPerRound caps the targets a greedy round evaluates.
	candidatesPerRound = 24
)

// Run executes the selected baseline on the accurate circuit.
func Run(method Method, accurate *netlist.Circuit, lib *cell.Library, cfg core.Config) (*core.Result, error) {
	return RunContext(context.Background(), method, accurate, lib, cfg)
}

// RunContext is Run with cooperative cancellation: the context is checked
// once per greedy round / GA generation / GWO iteration, and a cancelled
// run returns an error wrapping ctx.Err(). The check draws no randomness,
// so an uncancelled run is bit-identical to Run and a cancelled-then-rerun
// flow reproduces the original result exactly. cfg is validated as
// core.New validates DCGWO's; its CritMargin, SearchTries and InitLACs are
// replaced by the baselines' own. Progress and OnImproved are called as
// DCGWO calls them; the Result has no History.
func RunContext(ctx context.Context, method Method, accurate *netlist.Circuit, lib *cell.Library, cfg core.Config) (*core.Result, error) {
	cfg.CritMargin, cfg.SearchTries, cfg.InitLACs = critMargin, 1, 1
	opt, err := core.New(accurate, lib, cfg)
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, cfg: cfg, opt: opt, eval: opt.Evaluator(), rng: opt.Rand()}
	switch method {
	case VecbeeSasimi, HEDALS:
		return r.greedy(method)
	case VaACS:
		return r.genetic()
	case SingleChaseGWO:
		return r.singleChaseGWO()
	}
	return nil, fmt.Errorf("baselines: unknown method %v", method)
}

type runner struct {
	ctx  context.Context
	cfg  core.Config
	opt  *core.Optimizer
	eval *core.Evaluator
	rng  *rand.Rand
}

// checkpoint reports cancellation at a round boundary and emits progress
// for the best individual so far; it consumes no randomness.
func (r *runner) checkpoint(round int, best *core.Individual) error {
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("baselines: cancelled at round %d/%d: %w", round, r.cfg.MaxIter, err)
	}
	if r.cfg.Progress != nil {
		r.cfg.Progress(core.IterStats{
			Iter:        round,
			BestFit:     best.Fit,
			BestDelay:   best.Delay,
			BestArea:    best.Area,
			BestErr:     best.Err,
			ErrAllowed:  r.cfg.ErrorBudget,
			Evaluations: r.eval.Count(),
			Cache:       r.eval.CacheStats(),
		})
	}
	return nil
}

// improved reports a new running best to the OnImproved hook; like
// checkpoint it consumes no randomness.
func (r *runner) improved(best *core.Individual) {
	if r.cfg.OnImproved != nil {
		r.cfg.OnImproved(best)
	}
}

// result ends a run: its Front comes from the method's final candidates
// via the shared core helper (feasible, deduplicated, non-dominated, best
// always retained, deterministic order).
func (r *runner) result(best *core.Individual, others []*core.Individual) *core.Result {
	return &core.Result{
		Best:        best,
		Front:       core.FeasibleFront(best, others, r.cfg.ErrorBudget, r.eval.RefDelay(), r.eval.RefArea()),
		Evaluations: r.eval.Count(),
		Cache:       r.eval.CacheStats(),
	}
}

// score is a greedy method's objective, lower is better: HEDALS minimizes
// delay, VECBEE-S area.
func (m Method) score(ind *core.Individual) float64 {
	if m == HEDALS {
		return ind.Delay
	}
	return ind.Area
}

// greedy implements both VECBEE-SASIMI (area objective, targets anywhere)
// and HEDALS (delay objective, targets on critical paths): per round,
// enumerate candidate LACs, evaluate each as a change of the current
// circuit, and commit the best feasible improvement. Rounds without a
// feasible improvement end the run.
func (r *runner) greedy(m Method) (*core.Result, error) {
	r.eval.BeginGeneration()
	cur, err := r.eval.Evaluate(r.opt.Base().Clone())
	if err != nil {
		return nil, err
	}
	best := cur
	r.improved(best)
	failures := 0
	for round := 0; round < r.cfg.MaxIter; round++ {
		if err := r.checkpoint(round, best); err != nil {
			return nil, err
		}
		r.eval.BeginGeneration()
		res, err := r.eval.Simulate(cur.Circuit)
		if err != nil {
			return nil, err
		}
		rep, err := sta.Analyze(cur.Circuit, r.eval.Lib())
		if err != nil {
			return nil, err
		}
		// The greedy methods use SASIMI's full catalogue, inverted wires
		// included. The workers select each target's change and evaluate
		// it against cur; the pick below scans them in target order.
		kids, changes, err := r.eval.EvaluateRound(cur.Circuit, res, rep, r.pickTargets(m, cur.Circuit, rep))
		if err != nil {
			return nil, err
		}
		pick := -1
		for i, child := range kids {
			if child.Err > r.cfg.ErrorBudget || m.score(child) >= m.score(cur) {
				continue
			}
			if pick < 0 || m.score(child) < m.score(kids[pick]) {
				pick = i
			}
		}
		// A dry round may just be an unlucky target sample; give the
		// greedy a few more draws before concluding it has converged.
		if pick < 0 {
			if failures++; failures >= 3 {
				break
			}
			continue
		}
		failures = 0
		c := cur.Circuit.Clone() // only the winner becomes a circuit
		lac.Apply(c, changes[pick])
		cur = kids[pick]
		cur.Circuit = c
		if cur.Fit > best.Fit {
			best = cur
			r.improved(best)
		}
	}
	return r.result(best, []*core.Individual{cur}), nil
}

// pickTargets selects candidate target gates for one greedy round: HEDALS
// draws from the critical paths, VECBEE-S samples live physical gates
// uniformly. Both are capped at candidatesPerRound.
func (r *runner) pickTargets(m Method, c *netlist.Circuit, rep *sta.Report) []int {
	var pool []int
	if m == HEDALS {
		pool = rep.CriticalGates(c, critMargin)
	} else {
		live := c.Live()
		for id, g := range c.Gates {
			if live[id] && !g.Func.IsPseudo() {
				pool = append(pool, id)
			}
		}
	}
	r.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > candidatesPerRound {
		pool = pool[:candidatesPerRound]
	}
	return pool
}

// genetic implements the VaACS-style GA: elitist selection on a
// delay-driven fitness, offspring by LAC mutation and reproduction-style
// crossover, infeasible individuals discarded. Offspring are drawn
// serially (preserving the rng stream) and queued on the pipeline, which
// completes each mutant's LAC and evaluates it while the next is drawn.
func (r *runner) genetic() (*core.Result, error) {
	popSize := r.cfg.PopulationSize
	pop, err := r.opt.InitialPopulation()
	if err != nil {
		return nil, err
	}
	best := pop[0] // the exact circuit
	r.improved(best)
	wt := 0.9 * r.eval.RefDelay()
	for gen := 0; gen < r.cfg.MaxIter; gen++ {
		if err := r.checkpoint(gen, best); err != nil {
			return nil, err
		}
		r.eval.BeginGeneration()
		// Delay-driven fitness: feasible first, then faster first.
		sort.Slice(pop, func(i, j int) bool {
			fi, fj := pop[i].Err <= r.cfg.ErrorBudget, pop[j].Err <= r.cfg.ErrorBudget
			if fi != fj {
				return fi
			}
			return pop[i].Delay < pop[j].Delay
		})
		if pop[0].Err <= r.cfg.ErrorBudget && pop[0].Fit > best.Fit {
			best = pop[0]
			r.improved(best)
		}
		elite := pop[:max(2, popSize/4)]
		next := append([]*core.Individual(nil), elite...)
		p, err := r.eval.StartPipeline(popSize - len(next))
		if err != nil {
			return nil, err
		}
		for range popSize - len(next) {
			p1 := elite[r.rng.Intn(len(elite))]
			var t core.Task
			if r.rng.Float64() < 0.5 {
				t.C = core.Reproduce(p1, pop[r.rng.Intn(len(pop))], wt, 0.1)
			}
			if t.C == nil { // a mutant: one similarity-guided LAC on a random target
				t.C = p1.Circuit.Clone()
				t.Targets = lac.RandomTargets(t.C, r.rng)
			}
			p.Submit(t)
		}
		inds, err := p.Wait()
		if err != nil {
			return nil, err
		}
		pop = append(next, inds...)
	}
	for _, ind := range pop {
		if ind.Err <= r.cfg.ErrorBudget && ind.Fit > best.Fit {
			best = ind
			r.improved(best)
		}
	}
	return r.result(best, pop), nil
}

// singleChaseGWO implements the traditional GWO baseline: every non-alpha
// wolf consults the alpha only (one chase), actions decided by the same
// W-threshold rule, survivors picked by plain fitness truncation — no
// population division and no Pareto selection. Each wolf's child is
// queued on the pipeline the moment it is drawn.
func (r *runner) singleChaseGWO() (*core.Result, error) {
	popSize := r.cfg.PopulationSize
	pop, err := r.opt.InitialPopulation()
	if err != nil {
		return nil, err
	}
	exact := pop[0]
	best := core.BestFeasible(pop, r.cfg.ErrorBudget)
	r.improved(best)
	for iter := 1; iter <= r.cfg.MaxIter; iter++ {
		if err := r.checkpoint(iter-1, best); err != nil {
			return nil, err
		}
		r.eval.BeginGeneration()
		a := 2 - 2*float64(iter)/float64(r.cfg.MaxIter)
		sort.Slice(pop, func(i, j int) bool { return pop[i].Fit > pop[j].Fit })
		kids, err := r.hunt(pop[0], pop[1:], a)
		if err != nil {
			return nil, err
		}
		candidates := append(append([]*core.Individual(nil), pop...), kids...)
		// Plain truncation: feasible under the FULL budget (no asymptotic
		// relaxation — that refinement is DCGWO's), fittest first.
		feasible := candidates[:0:0]
		for _, ind := range candidates {
			if ind.Err <= r.cfg.ErrorBudget {
				feasible = append(feasible, ind)
			}
		}
		if len(feasible) == 0 {
			feasible = append(feasible, exact)
		}
		sort.Slice(feasible, func(i, j int) bool { return feasible[i].Fit > feasible[j].Fit })
		if len(feasible) > popSize {
			feasible = feasible[:popSize]
		}
		pop = feasible
		if b := core.BestFeasible(pop, r.cfg.ErrorBudget); b.Fit > best.Fit {
			best = b
			r.improved(best)
		}
	}
	return r.result(best, pop), nil
}

// hunt draws one GWO generation: each wolf consults the alpha and
// reproduces with it when W exceeds the threshold (and the merge makes a
// child), else takes one searching action. Every draw happens here in the
// wolves' order, and each child is queued the moment it is drawn.
func (r *runner) hunt(alpha *core.Individual, wolves []*core.Individual, a float64) ([]*core.Individual, error) {
	const threshold = 0.5
	wt := 0.9 * r.eval.RefDelay()
	p, err := r.eval.StartPipeline(len(wolves))
	if err != nil {
		return nil, err
	}
	defer p.Finish()
	for _, ci := range wolves {
		d := math.Abs(r.rng.Float64()*2*alpha.Fit - ci.Fit)
		w := (2*r.rng.Float64() - 1) * a * d
		var t core.Task
		if w > threshold {
			t.C = core.Reproduce(ci, alpha, wt, 0.1)
		}
		if t.C == nil {
			// One searching action, or a random LAC when Tc is empty.
			if t, err = r.opt.SearchClone(ci); err != nil {
				return nil, err
			}
		}
		p.Submit(t)
	}
	return p.Wait()
}
