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

// Optimizer runs DCGWO on one accurate circuit.
type Optimizer struct {
	cfg  Config
	lib  *cell.Library
	base *netlist.Circuit // accurate circuit with constants materialized
	eval *Evaluator
	rng  *rand.Rand
	wt   float64 // Level weight wt = 0.9·CPDori
	// memo holds the run's golden diff counts for switch selection. Only
	// the optimizer goroutine searches, so it needs no lock.
	memo *lac.Memo
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
		memo: lac.NewMemo(eval.est.GoldenResult()),
	}, nil
}

// Evaluator exposes the run's shared evaluation context (for the baseline
// optimizers and the experiment harness).
func (o *Optimizer) Evaluator() *Evaluator { return o.eval }

// Base returns the constant-materialized clone of the accurate circuit
// whose gate ID space the population shares.
func (o *Optimizer) Base() *netlist.Circuit { return o.base }

// RefDelay returns CPDori of the accurate circuit under this library.
func (o *Optimizer) RefDelay() float64 { return o.eval.RefDelay() }

// RefArea returns Areaori of the accurate circuit.
func (o *Optimizer) RefArea() float64 { return o.eval.RefArea() }

// searchClone applies one circuit-searching action to a fresh clone of the
// individual: simulate, time, build Tc, pick a target, substitute the most
// similar switch. When the netlist offers no searching move (e.g. the
// critical path is a bare wire) it falls back to a random LAC. The clone
// is simulated by the incremental engine (it differs from the accurate
// circuit only by the parent's accumulated LACs), which is exact, so the
// similarity-guided pick is identical to one made on a full simulation;
// the run's memo and the search's bound leave it unchanged too.
func (o *Optimizer) searchClone(ind *Individual) (*netlist.Circuit, error) {
	clone := ind.Circuit.Clone()
	res, err := o.eval.Simulate(clone)
	if err != nil {
		return nil, err
	}
	differs := o.eval.serial.sim.SignalDiffers
	rep, err := sta.Analyze(clone, o.lib)
	if err != nil {
		return nil, err
	}
	tries := o.cfg.SearchTries
	if tries < 1 {
		tries = 1
	}
	if _, ok := o.memo.SearchN(clone, res, differs, rep, o.rng, o.cfg.CritMargin, tries); !ok {
		o.memo.RandomChange(clone, res, differs, o.rng)
	}
	return clone, nil
}

// reproduceWith merges ind with the partner (falling back to a clone of
// the better parent plus a searching move when the merge is cyclic).
func (o *Optimizer) reproduceWith(ind, partner *Individual) (*netlist.Circuit, error) {
	if o.cfg.DisableReproduction {
		return o.searchClone(ind)
	}
	child := reproduce(ind, partner, o.wt, o.cfg.WeightErr)
	if child != nil {
		return child, nil
	}
	better := ind
	if partner.Fit > ind.Fit {
		better = partner
	}
	return o.searchClone(better)
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
	pop := make([]*Individual, 0, cfg.PopulationSize)

	// Initial population P0: the accurate circuit plus clones mutated by
	// random LACs (searching-style similarity picks on random targets).
	// The mutated clones are independent, so they are evaluated as one
	// parallel batch after the (serial, rng-consuming) mutation pass.
	o.eval.BeginGeneration()
	first, err := o.eval.Evaluate(o.base.Clone())
	if err != nil {
		return nil, err
	}
	pop = append(pop, first)
	clones := make([]*netlist.Circuit, 0, cfg.PopulationSize-1)
	for len(clones) < cfg.PopulationSize-1 {
		clone := o.base.Clone()
		for k := 0; k < cfg.InitLACs; k++ {
			res, err := o.eval.Simulate(clone)
			if err != nil {
				return nil, err
			}
			o.memo.RandomChange(clone, res, o.eval.serial.sim.SignalDiffers, o.rng)
		}
		clones = append(clones, clone)
	}
	inds, err := o.eval.EvaluateBatch(clones)
	if err != nil {
		return nil, err
	}
	pop = append(pop, inds...)

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

	best := bestFeasible(pop, cfg.ErrorBudget)
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
		leader := pop[0]
		elite := pop[1:4]
		omega := pop[4:]
		eliteMean := (elite[0].Fit + elite[1].Fit + elite[2].Fit) / 3

		candidates := append([]*Individual(nil), pop...)

		// Children are generated serially (every rng draw happens in the
		// original order) but evaluated as one parallel batch afterwards.
		// Evaluation is pure, so deferring it changes nothing; `children`
		// records the generation order so the candidate pool and the
		// running-best updates see the exact sequence the serial code
		// produced. The one exception is the ω "both actions" case, whose
		// searched circuit must be evaluated inline: circuit reproduction
		// consults its fitness and per-PO levels.
		var pending []*netlist.Circuit
		type childRef struct {
			ind   *Individual // non-nil for inline-evaluated children
			batch int         // index into pending otherwise
		}
		var children []childRef
		addChild := func(c *netlist.Circuit) {
			children = append(children, childRef{batch: len(pending)})
			pending = append(pending, c)
		}

		// Chase 1: elite circuits consult the leader.
		for _, ci := range elite {
			d := math.Abs(o.rng.Float64()*2*leader.Fit - ci.Fit)
			w := (2*o.rng.Float64() - 1) * a * d
			var child *netlist.Circuit
			if w > cfg.EliteThreshold {
				child, err = o.reproduceWith(ci, superior(pop, ci, o.rng))
			} else {
				child, err = o.searchClone(ci)
			}
			if err != nil {
				return nil, err
			}
			addChild(child)
		}

		// Chase 2: ω circuits consult the elite group.
		for _, ci := range omega {
			d := math.Abs(o.rng.Float64()*2*eliteMean - ci.Fit)
			w := (2*o.rng.Float64() - 1) * a * d
			partner := elite[o.rng.Intn(len(elite))]
			switch {
			case w > cfg.OmegaThreshold:
				// Both actions: search, evaluate, then reproduce the
				// searched circuit with an elite partner. Both results
				// join the candidate pool.
				searched, err := o.searchClone(ci)
				if err != nil {
					return nil, err
				}
				sInd, err := o.eval.Evaluate(searched)
				if err != nil {
					return nil, err
				}
				children = append(children, childRef{ind: sInd})
				child, err := o.reproduceWith(sInd, partner)
				if err != nil {
					return nil, err
				}
				addChild(child)
			case o.rng.Float64() < 0.5:
				child, err := o.searchClone(ci)
				if err != nil {
					return nil, err
				}
				addChild(child)
			default:
				child, err := o.reproduceWith(ci, partner)
				if err != nil {
					return nil, err
				}
				addChild(child)
			}
		}

		// The leader searches after the double chase to keep varying.
		leaderChild, err := o.searchClone(leader)
		if err != nil {
			return nil, err
		}
		addChild(leaderChild)

		evaluated, err := o.eval.EvaluateBatch(pending)
		if err != nil {
			return nil, err
		}
		for _, ref := range children {
			ind := ref.ind
			if ind == nil {
				ind = evaluated[ref.batch]
			}
			consider(ind)
			candidates = append(candidates, ind)
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

// bestFeasible returns the highest-fitness individual within the final
// error budget, or nil.
func bestFeasible(pop []*Individual, budget float64) *Individual {
	var best *Individual
	for _, ind := range pop {
		if ind.Err <= budget && (best == nil || ind.Fit > best.Fit) {
			best = ind
		}
	}
	return best
}
