// Package baselines implements the four comparison methods of the paper's
// evaluation on the same substrate (simulation, STA, LACs, error
// estimation) as DCGWO, so the experiments compare optimizer strategies
// and nothing else:
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
	"repro/internal/sim"
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

// Config tunes a baseline run. Rounds/population are scaled so every
// method gets a comparable evaluation budget to DCGWO.
type Config struct {
	// Metric and ErrorBudget mirror core.Config.
	Metric      core.Metric
	ErrorBudget float64
	// Rounds bounds greedy iterations / GA generations / GWO iterations.
	Rounds int
	// Population is the GA/GWO population size.
	Population int
	// CandidatesPerRound bounds how many LAC candidates a greedy method
	// evaluates per round.
	CandidatesPerRound int
	// Vectors is the Monte-Carlo sample size.
	Vectors int
	// CritMargin widens the critical-path candidate set.
	CritMargin float64
	// DepthWeight is the fitness weight used for reporting Fit; greedy
	// baselines optimize their own single objective regardless.
	DepthWeight float64
	// EvalWorkers caps the goroutines an evaluation batch keeps busy, the
	// caller's included (0 = GOMAXPROCS); mirrors core.Config.EvalWorkers.
	EvalWorkers int
	// Progress, when non-nil, is invoked once per round/generation with
	// the best individual found so far, mirroring core.Config.Progress.
	// It draws no randomness, so installing it never perturbs results.
	Progress func(core.IterStats)
	// OnImproved, when non-nil, is invoked every time the running best
	// feasible individual improves, mirroring core.Config.OnImproved. It
	// draws no randomness, so installing it never perturbs results.
	OnImproved func(*core.Individual)
	// Seed fixes the run.
	Seed int64
}

// DefaultConfig mirrors the evaluation budget of core.DefaultConfig.
func DefaultConfig(m core.Metric, budget float64) Config {
	return Config{
		Metric:             m,
		ErrorBudget:        budget,
		Rounds:             20,
		Population:         30,
		CandidatesPerRound: 24,
		Vectors:            1 << 14,
		CritMargin:         0.05,
		DepthWeight:        0.8,
		Seed:               1,
	}
}

// Result mirrors core.Result for a baseline run. Front is the feasible
// non-dominated set the method ends with: the final population's front
// for the population methods (VaACS, single-chase GWO), and the best/
// current pair for the greedy methods (which keep no population).
type Result struct {
	Best        *core.Individual
	Front       []*core.Individual
	Evaluations int
	// Cache reports the evaluation cache's effectiveness over the run.
	Cache core.CacheStats
}

// Run executes the selected baseline on the accurate circuit.
func Run(method Method, accurate *netlist.Circuit, lib *cell.Library, cfg Config) (*Result, error) {
	return RunContext(context.Background(), method, accurate, lib, cfg)
}

// RunContext is Run with cooperative cancellation: the context is checked
// once per greedy round / GA generation / GWO iteration, and a cancelled
// run returns an error wrapping ctx.Err(). The check draws no randomness,
// so an uncancelled run is bit-identical to Run and a cancelled-then-rerun
// flow reproduces the original result exactly.
func RunContext(ctx context.Context, method Method, accurate *netlist.Circuit, lib *cell.Library, cfg Config) (*Result, error) {
	base := accurate.Clone()
	base.Const0()
	base.Const1()
	rng := rand.New(rand.NewSource(cfg.Seed))
	vectors := sim.Random(rng, len(base.PIs), cfg.Vectors)
	eval, err := core.NewEvaluator(base, lib, cfg.Metric, cfg.DepthWeight, vectors)
	if err != nil {
		return nil, err
	}
	eval.SetMaxWorkers(cfg.EvalWorkers)
	r := &runner{ctx: ctx, cfg: cfg, lib: lib, base: base, eval: eval, rng: rng}
	switch method {
	case VecbeeSasimi:
		return r.greedy(objectiveArea)
	case HEDALS:
		return r.greedy(objectiveDelay)
	case VaACS:
		return r.genetic()
	case SingleChaseGWO:
		return r.singleChaseGWO()
	}
	return nil, fmt.Errorf("baselines: unknown method %v", method)
}

type runner struct {
	ctx  context.Context
	cfg  Config
	lib  *cell.Library
	base *netlist.Circuit
	eval *core.Evaluator
	rng  *rand.Rand
}

// checkpoint reports cancellation at a round boundary and emits progress
// for the best individual so far; it consumes no randomness.
func (r *runner) checkpoint(round int, best *core.Individual) error {
	if err := r.ctx.Err(); err != nil {
		return fmt.Errorf("baselines: cancelled at round %d/%d: %w", round, r.cfg.Rounds, err)
	}
	if r.cfg.Progress != nil && best != nil {
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
	if r.cfg.OnImproved != nil && best != nil {
		r.cfg.OnImproved(best)
	}
}

// front assembles the Result.Front from the method's final candidates via
// the shared core helper (feasible, deduplicated, non-dominated, best
// always retained, deterministic order).
func (r *runner) front(best *core.Individual, others []*core.Individual) []*core.Individual {
	return core.FeasibleFront(best, others, r.cfg.ErrorBudget, r.eval.RefDelay(), r.eval.RefArea())
}

// objective scores a candidate individual for the greedy methods; lower is
// better.
type objective func(ind *core.Individual) float64

func objectiveArea(ind *core.Individual) float64  { return ind.Area }
func objectiveDelay(ind *core.Individual) float64 { return ind.Delay }

// greedy implements both VECBEE-SASIMI (area objective, targets anywhere)
// and HEDALS (delay objective, targets on critical paths): per round,
// enumerate candidate LACs, evaluate each as a change of the current
// circuit, and commit the best feasible improvement. Rounds without a
// feasible improvement end the run.
func (r *runner) greedy(score objective) (*Result, error) {
	r.eval.BeginGeneration()
	cur, err := r.eval.Evaluate(r.base.Clone())
	if err != nil {
		return nil, err
	}
	best := cur
	r.improved(best)
	failures := 0
	for round := 0; round < r.cfg.Rounds; round++ {
		if err := r.checkpoint(round, best); err != nil {
			return nil, err
		}
		r.eval.BeginGeneration()
		res, err := r.eval.Simulate(cur.Circuit)
		if err != nil {
			return nil, err
		}
		rep, err := sta.Analyze(cur.Circuit, r.lib)
		if err != nil {
			return nil, err
		}
		// The greedy methods use SASIMI's full catalogue, inverted wires
		// included. The workers select each target's change and evaluate
		// it against cur; the pick below scans them in target order.
		kids, changes, err := r.eval.EvaluateRound(cur.Circuit, res, rep, r.pickTargets(cur.Circuit, rep, score))
		if err != nil {
			return nil, err
		}
		pick := -1
		for i, child := range kids {
			if child.Err > r.cfg.ErrorBudget || score(child) >= score(cur) {
				continue
			}
			if pick < 0 || score(child) < score(kids[pick]) {
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
	return &Result{Best: best, Front: r.front(best, []*core.Individual{cur}), Evaluations: r.eval.Count(), Cache: r.eval.CacheStats()}, nil
}

// pickTargets selects candidate target gates for one greedy round: HEDALS
// draws from the critical paths; SASIMI samples live physical gates
// uniformly. Both are capped at CandidatesPerRound.
func (r *runner) pickTargets(c *netlist.Circuit, rep *sta.Report, score objective) []int {
	var pool []int
	if isDelayObjective(score) {
		pool = rep.CriticalGates(c, r.cfg.CritMargin)
	} else {
		live := c.Live()
		for id, g := range c.Gates {
			if live[id] && !g.Func.IsPseudo() {
				pool = append(pool, id)
			}
		}
	}
	r.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > r.cfg.CandidatesPerRound {
		pool = pool[:r.cfg.CandidatesPerRound]
	}
	return pool
}

func isDelayObjective(score objective) bool {
	probe := &core.Individual{Delay: 2, Area: 1}
	return score(probe) == 2
}

// seedPopulation builds the initial population shared by the GA and GWO
// baselines: the exact circuit plus batch-evaluated single-LAC mutants.
func (r *runner) seedPopulation(exact *core.Individual, popSize int) ([]*core.Individual, error) {
	pop := []*core.Individual{exact}
	if popSize <= 1 {
		return pop, nil
	}
	seeds := make([]*netlist.Circuit, 0, popSize-1)
	for len(pop)+len(seeds) < popSize {
		c, err := r.mutateClone(exact)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, c)
	}
	inds, err := r.eval.EvaluateBatch(seeds)
	if err != nil {
		return nil, err
	}
	return append(pop, inds...), nil
}

// genetic implements the VaACS-style GA: elitist selection on a
// delay-driven fitness, offspring by LAC mutation and reproduction-style
// crossover, infeasible individuals discarded. Offspring are generated
// serially (preserving the rng stream) and evaluated in parallel batches.
func (r *runner) genetic() (*Result, error) {
	popSize := r.cfg.Population
	r.eval.BeginGeneration()
	exact, err := r.eval.Evaluate(r.base.Clone())
	if err != nil {
		return nil, err
	}
	pop, err := r.seedPopulation(exact, popSize)
	if err != nil {
		return nil, err
	}
	best := exact
	r.improved(best)
	wt := 0.9 * r.eval.RefDelay()
	for gen := 0; gen < r.cfg.Rounds; gen++ {
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
		offspring := make([]*netlist.Circuit, 0, popSize-len(next))
		for len(next)+len(offspring) < popSize {
			p1 := elite[r.rng.Intn(len(elite))]
			if r.rng.Float64() < 0.5 {
				p2 := pop[r.rng.Intn(len(pop))]
				if child := core.Reproduce(p1, p2, wt, 0.1); child != nil {
					offspring = append(offspring, child)
					continue
				}
			}
			child, err := r.mutateClone(p1)
			if err != nil {
				return nil, err
			}
			offspring = append(offspring, child)
		}
		inds, err := r.eval.EvaluateBatch(offspring)
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
	return &Result{Best: best, Front: r.front(best, pop), Evaluations: r.eval.Count(), Cache: r.eval.CacheStats()}, nil
}

// mutateClone clones the individual and applies one similarity-guided LAC
// on a random target (consuming rng); evaluation is left to the caller so
// independent mutants can be batched.
func (r *runner) mutateClone(ind *core.Individual) (*netlist.Circuit, error) {
	clone := ind.Circuit.Clone()
	return clone, r.eval.Search(clone, nil, lac.RandomTargets(clone, r.rng))
}

// singleChaseGWO implements the traditional GWO baseline: every non-alpha
// wolf consults the alpha only (one chase), actions decided by the same
// W-threshold rule, survivors picked by plain fitness truncation — no
// population division and no Pareto selection.
func (r *runner) singleChaseGWO() (*Result, error) {
	popSize := r.cfg.Population
	r.eval.BeginGeneration()
	exact, err := r.eval.Evaluate(r.base.Clone())
	if err != nil {
		return nil, err
	}
	pop, err := r.seedPopulation(exact, popSize)
	if err != nil {
		return nil, err
	}
	best := bestFeasible(pop, r.cfg.ErrorBudget)
	r.improved(best)
	wt := 0.9 * r.eval.RefDelay()
	const threshold = 0.5
	for iter := 1; iter <= r.cfg.Rounds; iter++ {
		if err := r.checkpoint(iter-1, best); err != nil {
			return nil, err
		}
		r.eval.BeginGeneration()
		a := 2 - 2*float64(iter)/float64(r.cfg.Rounds)
		sort.Slice(pop, func(i, j int) bool { return pop[i].Fit > pop[j].Fit })
		alpha := pop[0]
		candidates := append([]*core.Individual(nil), pop...)
		// Per-wolf actions consume rng serially; the resulting children
		// are independent and evaluated as one batch.
		offspring := make([]*netlist.Circuit, 0, len(pop)-1)
		for _, ci := range pop[1:] {
			d := math.Abs(r.rng.Float64()*2*alpha.Fit - ci.Fit)
			w := (2*r.rng.Float64() - 1) * a * d
			var childC *netlist.Circuit
			if w > threshold {
				childC = core.Reproduce(ci, alpha, wt, 0.1)
			}
			if childC == nil {
				// One searching action, or a random LAC when Tc is empty.
				clone := ci.Circuit.Clone()
				rep, err := sta.Analyze(clone, r.lib)
				if err != nil {
					return nil, err
				}
				targets := lac.DrawTargets(clone, rep, r.rng, r.cfg.CritMargin, 1)
				if len(targets) == 0 {
					rep, targets = nil, lac.RandomTargets(clone, r.rng)
				}
				if err := r.eval.Search(clone, rep, targets); err != nil {
					return nil, err
				}
				childC = clone
			}
			offspring = append(offspring, childC)
		}
		kids, err := r.eval.EvaluateBatch(offspring)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, kids...)
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
		if b := bestFeasible(pop, r.cfg.ErrorBudget); b != nil && (best == nil || b.Fit > best.Fit) {
			best = b
			r.improved(best)
		}
	}
	return &Result{Best: best, Front: r.front(best, pop), Evaluations: r.eval.Count(), Cache: r.eval.CacheStats()}, nil
}

func bestFeasible(pop []*core.Individual, budget float64) *core.Individual {
	var best *core.Individual
	for _, ind := range pop {
		if ind.Err <= budget && (best == nil || ind.Fit > best.Fit) {
			best = ind
		}
	}
	return best
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
