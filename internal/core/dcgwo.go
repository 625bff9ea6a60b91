package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/cell"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// Optimizer runs DCGWO on one accurate circuit. It is also the substrate
// the baseline optimizers (internal/baselines) run on: the same set-up,
// initial population, searching action and pipeline.
type Optimizer struct {
	cfg  Config
	lib  *cell.Library
	base *netlist.Circuit // accurate circuit with constants materialized
	eval *Evaluator
	rng  *rand.Rand
	wt   float64 // Level weight wt = 0.9·CPDori
}

// New prepares a DCGWO run: it clones the accurate circuit, materializes
// the constant gates (so the whole population shares one gate ID space),
// samples the Monte-Carlo vectors, and measures the reference delay/area.
func New(accurate *netlist.Circuit, lib *cell.Library, cfg Config) (*Optimizer, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	base := accurate.Clone()
	base.Const0()
	base.Const1()
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("core: accurate circuit: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	vectors := sim.Random(rng, len(base.PIs), cfg.Vectors)
	eval, err := NewEvaluator(base, lib, cfg.Metric, cfg.DepthWeight, vectors)
	if err != nil {
		return nil, err
	}
	eval.SetMaxWorkers(cfg.EvalWorkers)
	return &Optimizer{
		cfg:  cfg,
		lib:  lib,
		base: base,
		rng:  rng,
		wt:   0.9 * eval.RefDelay(),
		eval: eval,
	}, nil
}

// Evaluator exposes the run's shared evaluation context (for the baseline
// optimizers and the experiment harness).
func (o *Optimizer) Evaluator() *Evaluator { return o.eval }

// Rand returns the run's random source, which New seeded with Config.Seed
// and drew the Monte-Carlo vectors from. A baseline optimizer makes its
// own draws from it, in its own serial order.
func (o *Optimizer) Rand() *rand.Rand { return o.rng }

// Base returns the constant-materialized clone of the accurate circuit
// whose gate ID space the population shares.
func (o *Optimizer) Base() *netlist.Circuit { return o.base }

// RefDelay returns CPDori of the accurate circuit under this library.
func (o *Optimizer) RefDelay() float64 { return o.eval.RefDelay() }

// RefArea returns Areaori of the accurate circuit.
func (o *Optimizer) RefArea() float64 { return o.eval.RefArea() }

// SearchClone draws one circuit-searching action on a fresh clone of the
// individual: time the clone, build Tc (CritMargin) and draw SearchTries
// targets, or a random LAC's target when the netlist offers no searching
// move (e.g. the critical path is a bare wire). No draw depends on a
// similarity count (see lac.DrawTargets), so the pipeline may complete the
// search on any goroutine.
func (o *Optimizer) SearchClone(ind *Individual) (Task, error) {
	clone := ind.Circuit.Clone()
	rep, err := sta.Analyze(clone, o.lib)
	if err != nil {
		return Task{}, err
	}
	targets := lac.DrawTargets(clone, rep, o.rng, o.cfg.CritMargin, max(o.cfg.SearchTries, 1))
	if len(targets) == 0 {
		rep, targets = nil, lac.RandomTargets(clone, o.rng)
	}
	return Task{C: clone, Rep: rep, Targets: targets}, nil
}

// reproduceWith merges ind with the partner by circuit reproduction. A nil
// child breaks DCGWO's invariants (one shared gate ID space and acyclic
// parents, see reproduce), so it is an error.
func (o *Optimizer) reproduceWith(ind, partner *Individual) (Task, error) {
	if o.cfg.DisableReproduction {
		return o.SearchClone(ind)
	}
	child := reproduce(ind, partner, o.wt, o.cfg.WeightErr)
	if child == nil {
		return Task{}, fmt.Errorf("core: circuit reproduction made no child: a parent left the base's gate ID space or the merge made a loop")
	}
	return Task{C: child}, nil
}

// InitialPopulation evaluates P0 at a generation boundary: the accurate
// circuit first, then PopulationSize−1 clones of it, each mutated by
// InitLACs random LACs (searching-style similarity picks on random
// targets). A clone's LACs but the last are applied here, because the
// next draw reads the clone; the last one's target is drawn here and the
// clone is queued with it, so the pipeline completes the LAC and
// evaluates the clone while the next clone is drawn.
func (o *Optimizer) InitialPopulation() ([]*Individual, error) {
	o.eval.BeginGeneration()
	first, err := o.eval.Evaluate(o.base.Clone())
	if err != nil {
		return nil, err
	}
	p, err := o.eval.StartPipeline(o.cfg.PopulationSize - 1)
	if err != nil {
		return nil, err
	}
	defer p.Finish()
	for range o.cfg.PopulationSize - 1 {
		t := Task{C: o.base.Clone()}
		for range o.cfg.InitLACs {
			// Apply the previous draw (none the first time), then draw.
			if err := o.eval.Search(t.C, nil, t.Targets); err != nil {
				return nil, err
			}
			t.Targets = lac.RandomTargets(t.C, o.rng)
		}
		p.Submit(t)
	}
	inds, err := p.Wait()
	if err != nil {
		return nil, err
	}
	return append([]*Individual{first}, inds...), nil
}

// Run executes the full DCGWO loop and returns the best approximate
// circuit found under the error budget.
func (o *Optimizer) Run() (*Result, error) { return o.RunContext(context.Background()) }

// RunContext is Run with cooperative cancellation: the context is checked
// once per iteration (and before the initial population is evaluated), and
// a cancelled run returns an error wrapping ctx.Err(). The check draws no
// randomness, so a run that is never cancelled is bit-identical to Run,
// and a cancelled-then-rerun flow reproduces the original result exactly.
func (o *Optimizer) RunContext(ctx context.Context) (*Result, error) {
	cfg := o.cfg
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: optimization cancelled before start: %w", err)
	}
	pop, err := o.InitialPopulation()
	if err != nil {
		return nil, err
	}
	first := pop[0]

	// Quadratic relaxation Err(iter) = b·iter² + Err0 (paper §III-B),
	// with b chosen so the constraint reaches the budget at
	// RelaxAt·Imax and holds there.
	err0 := cfg.InitErrorFrac * cfg.ErrorBudget
	relaxAt := cfg.RelaxAt
	if relaxAt <= 0 || relaxAt > 1 {
		relaxAt = 0.7
	}
	relaxIters := relaxAt * float64(cfg.MaxIter)
	bQuad := (cfg.ErrorBudget - err0) / (relaxIters * relaxIters)

	best := BestFeasible(pop, cfg.ErrorBudget)
	if best != nil && cfg.OnImproved != nil {
		cfg.OnImproved(best)
	}
	result := &Result{}
	// consider tracks the best individual over everything evaluated, not
	// just selection survivors: a child rejected by the current relaxed
	// constraint may still satisfy the user's final budget.
	consider := func(ind *Individual) {
		if ind.Err <= cfg.ErrorBudget && (best == nil || ind.Fit > best.Fit) {
			best = ind
			if cfg.OnImproved != nil {
				cfg.OnImproved(ind)
			}
		}
	}

	for iter := 1; iter <= cfg.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: optimization cancelled at iteration %d/%d: %w", iter, cfg.MaxIter, err)
		}
		o.eval.BeginGeneration()
		errAllowed := math.Min(cfg.ErrorBudget, err0+bQuad*float64(iter*iter))
		a := 2 - 2*float64(iter)/float64(cfg.MaxIter)

		sort.Slice(pop, func(i, j int) bool { return pop[i].Fit > pop[j].Fit })
		children, err := o.chase(pop, a)
		if err != nil {
			return nil, err
		}
		candidates := append(append([]*Individual(nil), pop...), children...)
		for _, ind := range children {
			consider(ind)
		}

		// Population update: drop over-constraint candidates, then
		// non-dominated sort + crowding selection.
		feasible := candidates[:0:0]
		for _, ind := range candidates {
			if ind.Err <= errAllowed {
				feasible = append(feasible, ind)
			}
		}
		if len(feasible) == 0 {
			feasible = append(feasible, first) // the exact circuit always fits
		}
		pop = selectSurvivors(feasible, cfg.PopulationSize, o.eval.RefDelay(), o.eval.RefArea())
		for len(pop) < cfg.PopulationSize {
			pop = append(pop, first)
		}
		// Elitism: the best feasible circuit found so far always stays in
		// the pack (it is the leader the next chase consults), replacing
		// the worst survivor if the Pareto selection dropped it.
		if best != nil && best.Err <= errAllowed {
			present := false
			for _, ind := range pop {
				if ind == best {
					present = true
					break
				}
			}
			if !present {
				worst := 0
				for i, ind := range pop {
					if ind.Fit < pop[worst].Fit {
						worst = i
					}
				}
				pop[worst] = best
			}
		}

		stats := IterStats{
			Iter:        iter,
			BestFit:     best.Fit,
			BestDelay:   best.Delay,
			BestArea:    best.Area,
			BestErr:     best.Err,
			ErrAllowed:  errAllowed,
			Evaluations: o.eval.Count(),
			Cache:       o.eval.CacheStats(),
		}
		result.History = append(result.History, stats)
		if cfg.Progress != nil {
			cfg.Progress(stats)
		}
	}

	result.Best = best
	result.Front = FeasibleFront(best, pop, cfg.ErrorBudget, o.eval.RefDelay(), o.eval.RefArea())
	result.Evaluations = o.eval.Count()
	result.Cache = o.eval.CacheStats()
	return result, nil
}

// chase runs one generation's double chase over the sorted population
// and returns the children in generation order. Every draw happens here
// in the serial order, and each child is queued on the pipeline the
// moment it is drawn; one per elite, ω and leader member fills the
// PopulationSize slots. The ω "both actions" case's searched circuit is
// evaluated inline: circuit reproduction consults its fitness.
func (o *Optimizer) chase(pop []*Individual, a float64) ([]*Individual, error) {
	cfg := o.cfg
	leader, elite, omega := pop[0], pop[1:4], pop[4:]
	eliteMean := (elite[0].Fit + elite[1].Fit + elite[2].Fit) / 3

	p, err := o.eval.StartPipeline(cfg.PopulationSize)
	if err != nil {
		return nil, err
	}
	defer p.Finish()
	var children []*Individual // nil: the next queued child
	queue := func(t Task, err error) error {
		if err == nil {
			p.Submit(t)
			children = append(children, nil)
		}
		return err
	}

	// Chase 1: elite circuits consult the leader.
	for _, ci := range elite {
		d := math.Abs(o.rng.Float64()*2*leader.Fit - ci.Fit)
		w := (2*o.rng.Float64() - 1) * a * d
		var err error
		if w > cfg.EliteThreshold {
			err = queue(o.reproduceWith(ci, superior(pop, ci, o.rng)))
		} else {
			err = queue(o.SearchClone(ci))
		}
		if err != nil {
			return nil, err
		}
	}

	// Chase 2: ω circuits consult the elite group.
	for _, ci := range omega {
		d := math.Abs(o.rng.Float64()*2*eliteMean - ci.Fit)
		w := (2*o.rng.Float64() - 1) * a * d
		partner := elite[o.rng.Intn(len(elite))]
		var err error
		switch {
		case w > cfg.OmegaThreshold:
			// Both actions: search, evaluate, then reproduce the
			// searched circuit with an elite partner. Both results
			// join the candidate pool.
			var searched *Individual
			if searched, err = o.searchInline(ci); err == nil {
				children = append(children, searched)
				err = queue(o.reproduceWith(searched, partner))
			}
		case o.rng.Float64() < 0.5:
			err = queue(o.SearchClone(ci))
		default:
			err = queue(o.reproduceWith(ci, partner))
		}
		if err != nil {
			return nil, err
		}
	}

	// The leader searches after the double chase to keep varying.
	if err := queue(o.SearchClone(leader)); err != nil {
		return nil, err
	}

	queued, err := p.Wait()
	if err != nil {
		return nil, err
	}
	for i := range children {
		if children[i] == nil {
			children[i], queued = queued[0], queued[1:]
		}
	}
	return children, nil
}

// searchInline searches a clone of ind and evaluates it at once.
func (o *Optimizer) searchInline(ind *Individual) (*Individual, error) {
	t, err := o.SearchClone(ind)
	if err != nil {
		return nil, err
	}
	if err := o.eval.Search(t.C, t.Rep, t.Targets); err != nil {
		return nil, err
	}
	return o.eval.Evaluate(t.C)
}

// superior returns a random population member with strictly better fitness
// than ci (the leader qualifies by construction).
func superior(pop []*Individual, ci *Individual, rng *rand.Rand) *Individual {
	var better []*Individual
	for _, p := range pop {
		if p.Fit > ci.Fit {
			better = append(better, p)
		}
	}
	if len(better) == 0 {
		return pop[0]
	}
	return better[rng.Intn(len(better))]
}

// BestFeasible returns the highest-fitness individual within the error
// budget, the first of equals, or nil.
func BestFeasible(pop []*Individual, budget float64) *Individual {
	var best *Individual
	for _, ind := range pop {
		if ind.Err <= budget && (best == nil || ind.Fit > best.Fit) {
			best = ind
		}
	}
	return best
}
