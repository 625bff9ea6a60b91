// Package core implements the paper's contribution: the double-chase grey
// wolf optimizer (DCGWO) for timing-driven approximate logic synthesis.
//
// DCGWO evolves a population of approximate circuits (clones of the
// accurate netlist mutated by LACs) to simultaneously minimize critical
// path delay and area under an ER or NMED constraint:
//
//   - Population division (Fig. 4): the best-fitness circuit is the
//     leader, ranks 2-4 are the elite group Ge, the rest form the ω group
//     Gω.
//   - Two approximate actions: circuit searching (similarity-guided LACs
//     on critical-path gates) and circuit reproduction (per-PO TFI
//     crossover scored by the Level function, Eq. 3).
//   - Per-hierarchy decision rules (Eqs. 4-7): the fitness distance D to
//     the guiding hierarchy, scaled by the GWO encircling coefficient
//     A = (2·r1 - 1)·a with a decaying 2 → 0, yields W; comparing W with
//     thresholds Se/Sω picks the action.
//   - Candidates (old ∪ new population) are filtered by the current
//     relaxed error constraint, non-dominated sorted on the depth/area
//     ratio objectives with crowding distance (Eq. 9), and the best N
//     survive.
//   - Asymptotic error relaxation: Err(iter) = b·iter² + Err0 grows
//     quadratically to the user budget, preventing an early rush to the
//     constraint boundary.
package core

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/cell"
	"repro/internal/errest"
	"repro/internal/lac"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/sta"
)

// Metric selects which error measure constrains the optimization.
type Metric uint8

const (
	// MetricER constrains the error rate (random/control circuits).
	MetricER Metric = iota
	// MetricNMED constrains the normalized mean error distance
	// (arithmetic circuits).
	MetricNMED
)

// String names the metric as in the paper.
func (m Metric) String() string {
	if m == MetricER {
		return "ER"
	}
	return "NMED"
}

// Config holds every DCGWO parameter. The zero value is invalid; use
// DefaultConfig and override fields as needed.
type Config struct {
	// Metric is the constrained error measure.
	Metric Metric
	// ErrorBudget is the user-specified maximum error constraint
	// (e.g. 0.05 for a 5% ER).
	ErrorBudget float64
	// PopulationSize is N (paper: 30).
	PopulationSize int
	// MaxIter is Imax (paper: 20).
	MaxIter int
	// DepthWeight is wd in the fitness (Eq. 8; paper sweeps Fig. 6 and
	// settles on 0.8). The area weight is 1 - DepthWeight.
	DepthWeight float64
	// WeightErr is we in the Level function (paper: 0.1 under ER, 0.2
	// under NMED). WeightTa (wt) is fixed at 0.9·CPDori by the paper and
	// computed internally.
	WeightErr float64
	// EliteThreshold is Se, the decision threshold of the elite group.
	EliteThreshold float64
	// OmegaThreshold is Sω, the decision threshold of the ω group.
	OmegaThreshold float64
	// InitErrorFrac sets Err0, the starting error constraint, as a
	// fraction of ErrorBudget.
	InitErrorFrac float64
	// RelaxAt is the fraction of MaxIter at which the quadratic
	// relaxation reaches the full budget (the paper's "appropriate
	// empirical parameter b"); the constraint stays at the budget
	// afterwards.
	RelaxAt float64
	// InitLACs is how many random LACs seed each initial individual.
	InitLACs int
	// CritMargin widens the searching targets set to paths within this
	// fraction of the CPD.
	CritMargin float64
	// SearchTries is how many Tc samples one searching action considers
	// before applying the highest-similarity change (1 = the paper's
	// single random draw).
	SearchTries int
	// Vectors is the Monte-Carlo sample size (paper: 1e5).
	Vectors int
	// DisableReproduction replaces every reproduction action with a
	// searching action (ablation of the crossover operator).
	DisableReproduction bool
	// EvalWorkers caps the goroutines one flow keeps busy, the optimizer
	// goroutine included (0 = GOMAXPROCS). Results are identical at any
	// value; outer schedulers that shard whole flows set it to avoid
	// nested-pool oversubscription.
	EvalWorkers int
	// Progress, when non-nil, is invoked once per iteration with the
	// iteration's convergence stats (the same record appended to
	// Result.History). It is called from the optimization goroutine and
	// draws no randomness, so installing it never perturbs results; a
	// serving layer uses it to report live per-job progress and to decide
	// when to cancel.
	Progress func(IterStats)
	// OnImproved, when non-nil, is invoked from the optimization goroutine
	// every time the running best feasible individual improves — once for
	// the first feasible individual found (the accurate circuit always
	// qualifies) and again for every later fitness improvement under the
	// final error budget. Like Progress it draws no randomness, so
	// installing it never perturbs results; the streaming session API uses
	// it to surface improved solutions as they are found.
	OnImproved func(*Individual)
	// Seed makes the run reproducible.
	Seed int64
}

// DefaultConfig returns the paper's parameter setting for the given
// metric and budget.
func DefaultConfig(m Metric, budget float64) Config {
	we := 0.1
	if m == MetricNMED {
		we = 0.2
	}
	return Config{
		Metric:         m,
		ErrorBudget:    budget,
		PopulationSize: 30,
		MaxIter:        20,
		DepthWeight:    0.8,
		WeightErr:      we,
		EliteThreshold: 0.5,
		OmegaThreshold: 0.3,
		InitErrorFrac:  0.5,
		RelaxAt:        0.5,
		InitLACs:       2,
		CritMargin:     0.1,
		SearchTries:    4,
		Vectors:        1 << 14,
		Seed:           1,
	}
}

func (c *Config) validate() error {
	if c.ErrorBudget < 0 {
		return fmt.Errorf("core: negative error budget %v", c.ErrorBudget)
	}
	if c.PopulationSize < 5 {
		return fmt.Errorf("core: population size %d < 5 (need leader + 3 elite + ω)", c.PopulationSize)
	}
	if c.MaxIter < 1 {
		return fmt.Errorf("core: MaxIter must be positive")
	}
	if c.DepthWeight < 0 || c.DepthWeight > 1 {
		return fmt.Errorf("core: DepthWeight %v outside [0,1]", c.DepthWeight)
	}
	if c.Vectors < 64 {
		return fmt.Errorf("core: need at least 64 simulation vectors")
	}
	return nil
}

// Individual is one approximate circuit with its evaluation.
type Individual struct {
	// Circuit shares the accurate circuit's gate ID space (constants
	// pre-materialized), so reproduction can merge adjacency by ID.
	Circuit *netlist.Circuit
	// Fit is the fitness of Eq. 8.
	Fit float64
	// Delay is the critical path delay ("depth" term, obtained by STA).
	Delay float64
	// Depth is the logic depth in gate levels (reported alongside).
	Depth int
	// Area is the live area (accurate area minus dangling gates).
	Area float64
	// Err is the constrained error metric's value.
	Err float64
	// PerPO is the per-output error rate (for the Level function).
	PerPO []float64
	// POArrival is Ta per PO (for the Level function).
	POArrival []float64
}

// fd and fa are the two objectives of the non-dominated sort: the depth
// function Depthori/Depthapp and the area function Areaori/Areaapp
// (both maximized).
func (ind *Individual) fd(refDelay float64) float64 { return refDelay / ind.Delay }
func (ind *Individual) fa(refArea float64) float64  { return refArea / ind.Area }

// IterStats records one iteration for convergence reporting.
type IterStats struct {
	Iter        int
	BestFit     float64
	BestDelay   float64
	BestArea    float64
	BestErr     float64
	ErrAllowed  float64
	Evaluations int
	// Cache snapshots the evaluation cache's cumulative counters as of
	// this iteration, so per-iteration deltas (and trace spans) can show
	// where an iteration's evaluation time went.
	Cache CacheStats
}

// Result is the outcome of one optimizer run, DCGWO's or a baseline's.
type Result struct {
	// Best is the highest-fitness individual meeting the final budget.
	Best *Individual
	// Front is the feasible non-dominated subset of the final population
	// (plus Best) under the depth/area objectives — the delay/area
	// trade-off set the population explored, of which Best is the
	// single-fitness summary. It is assembled by FeasibleFront after the
	// optimization loop, so collecting it never perturbs the run. The
	// greedy baselines keep no population: their front is drawn from Best
	// and their last current circuit.
	Front []*Individual
	// History holds DCGWO's per-iteration convergence stats (nil for the
	// baselines).
	History []IterStats
	// Evaluations counts circuit evaluations performed.
	Evaluations int
	// Cache reports the evaluation cache's effectiveness over the run.
	Cache CacheStats
}

// Evaluator bundles the fixed evaluation context of one optimization run:
// the cell library, the error estimator bound to the accurate circuit, the
// error metric, the fitness depth weight, and the accurate circuit's
// reference delay/area. The baseline optimizers share it so every method
// is compared on an identical substrate (as in the paper's experiments).
//
// A candidate costs what it changed. It is simulated by the incremental
// fanout-cone engine (sim.Simulator) against the accurate circuit's cached
// golden waveforms, its error metrics are recomputed only for primary
// outputs whose cones were touched, and a candidate in the accurate
// circuit's gate ID space and topological order is timed by an
// sta.Retimer over its changed gates' cones against the accurate
// circuit's report. All three are exact, so an Evaluator returns
// bit-identical Individuals to full re-simulation and full STA; other
// candidates get both. Every method's generations — DCGWO's, VaACS's and
// single-chase GWO's children, the greedy rounds (EvaluateRound, which
// evaluates against the round's parent) — and EvaluateBatch run on one
// pipeline, one arena (simulator and re-timer) per worker; evaluation is
// pure (no RNG, no shared mutable state), so results are deterministic
// and identical to serial evaluation. The Evaluator also completes the
// population optimizers' searching actions (a Task's targets, or Search),
// through the run's switch-selection memo.
type Evaluator struct {
	lib      *cell.Library
	est      *errest.Estimator
	base     *netlist.Circuit
	baseRep  *sta.Report
	metric   Metric
	wd       float64
	refDelay float64
	refArea  float64
	count    int

	serial *arena // arena for serial Evaluate/Simulate/Search calls

	// memo holds the run's golden diff counts and popcounts for switch
	// selection; every worker's searches read and fill it concurrently.
	memo *lac.Memo

	// Generation-scoped evaluation reuse (see evalcache.go). pos mirrors
	// the base circuit's memoized topological order; cacheEnabled is read
	// on every evaluation and must only be toggled between runs.
	pos          []int
	cache        *evalCache
	cacheEnabled bool

	// maxWorkers caps the goroutines a pipeline keeps busy, the caller's
	// included (0 = GOMAXPROCS). Outer schedulers that already parallelize
	// across flows set it so nested pools don't oversubscribe the machine.
	maxWorkers int

	poolMu sync.Mutex
	pool   []*arena // idle pipeline arenas
}

// arena is one evaluation worker's private scratch: a simulator bound to
// the accurate circuit's golden waveforms and a re-timer bound to its
// timing report, the error estimator's and the searches' working memory,
// and the scratch of the last greedy round it served.
type arena struct {
	sim *sim.Simulator
	rt  *sta.Retimer
	es  errest.Scratch
	// within, tfi and stack hold a search's fan-in walks: tfi[k] is
	// target k's transitive fan-in, within their union.
	within []bool
	tfi    [][]bool
	stack  []int
	rb     rebased
}

// NewEvaluator simulates the accurate circuit on n sampled vectors and
// measures its reference timing and area. The accurate circuit must
// already have its constant gates materialized if population members will
// share its ID space.
func NewEvaluator(accurate *netlist.Circuit, lib *cell.Library, metric Metric,
	depthWeight float64, vectors *sim.Vectors) (*Evaluator, error) {

	est, err := errest.New(accurate, vectors)
	if err != nil {
		return nil, err
	}
	if metric == MetricER {
		est.SetEROnly() // finish reads ER and PerPO alone
	}
	rep, err := sta.Analyze(accurate, lib)
	if err != nil {
		return nil, err
	}
	refDelay := rep.CPD
	if refDelay <= 0 {
		refDelay = 1 // degenerate PI→PO netlist: keep ratios finite
	}
	refArea := accurate.Area(lib)
	if refArea <= 0 {
		refArea = 1
	}
	pos, err := accurate.TopoPos()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		lib:          lib,
		est:          est,
		base:         accurate,
		baseRep:      rep,
		metric:       metric,
		wd:           depthWeight,
		refDelay:     refDelay,
		refArea:      refArea,
		pos:          pos,
		cache:        newEvalCache(),
		cacheEnabled: true,
		memo:         lac.NewMemo(est.GoldenResult()),
	}
	if e.serial, err = e.newArena(); err != nil {
		return nil, err
	}
	return e, nil
}

// Lib returns the cell library of this evaluation context.
func (e *Evaluator) Lib() *cell.Library { return e.lib }

// Vectors returns the shared Monte-Carlo input sample.
func (e *Evaluator) Vectors() *sim.Vectors { return e.est.Vectors() }

// Metric returns the constrained error metric.
func (e *Evaluator) Metric() Metric { return e.metric }

// RefDelay returns CPDori of the accurate circuit.
func (e *Evaluator) RefDelay() float64 { return e.refDelay }

// RefArea returns Areaori of the accurate circuit.
func (e *Evaluator) RefArea() float64 { return e.refArea }

// Count returns how many circuit evaluations have been performed.
func (e *Evaluator) Count() int { return e.count }

// SetMaxWorkers caps the goroutines a pipeline keeps busy, the caller's
// included (0 restores the default, GOMAXPROCS). Evaluation is pure, so
// the cap changes scheduling only — never results.
func (e *Evaluator) SetMaxWorkers(n int) { e.maxWorkers = n }

// BeginGeneration marks a generation boundary of the driving optimizer:
// the evaluation cache drops all entries (candidates of past generations
// are no longer likely to recur) while its counters keep accumulating.
// Optimizers call it before seeding the initial population and once per
// generation; calling it never changes results, only reuse opportunity.
func (e *Evaluator) BeginGeneration() { e.cache.reset() }

// CacheStats snapshots the evaluation cache's cumulative counters.
func (e *Evaluator) CacheStats() CacheStats { return e.cache.stats() }

// SetCacheEnabled turns cross-candidate evaluation reuse off (or back on).
// Results are bit-identical either way — the switch exists so exactness
// tests can compare the two paths and benchmarks can measure the gap. It
// must not be toggled while evaluations are in flight.
func (e *Evaluator) SetCacheEnabled(on bool) { e.cacheEnabled = on }

// Simulate runs the incremental engine on a candidate sharing the base
// circuit's gate ID space, returning the full per-gate waveforms (exactly
// what a full sim.Run would produce). The result is backed by the
// Evaluator's serial simulator arena and is valid only until the next
// Simulate or Evaluate call; it does not count as a circuit evaluation.
func (e *Evaluator) Simulate(c *netlist.Circuit) (*sim.Result, error) {
	return e.serial.sim.Simulate(c)
}

// Search completes a searching action on c, a candidate in the accurate
// circuit's gate ID space, for the targets drawn for it (lac.DrawTargets,
// or lac.RandomTargets with a nil rep): it simulates the targets'
// transitive fan-in alone, the only gates selection reads, selects the
// most similar switch through the run's memo (lac.Memo.Select; rep breaks
// similarity ties) and applies it. Without targets it does nothing. The
// change is the one memo-less selection on a full simulation picks.
// Search uses the serial arena, like Simulate.
func (e *Evaluator) Search(c *netlist.Circuit, rep *sta.Report, targets []int) error {
	return e.search(e.serial, c, rep, targets)
}

// search is Search in arena a.
func (e *Evaluator) search(a *arena, c *netlist.Circuit, rep *sta.Report, targets []int) error {
	if len(targets) == 0 {
		return nil
	}
	n := len(c.Gates)
	a.within = slices.Grow(a.within[:0], n)[:n]
	clear(a.within)
	a.tfi = append(a.tfi, make([][]bool, max(0, len(targets)-len(a.tfi)))...)
	for k, t := range targets {
		in := slices.Grow(a.tfi[k][:0], n)[:n]
		clear(in)
		a.stack = c.MarkTFI(in, a.stack, t)
		for id, ok := range in {
			if ok {
				a.within[id] = true
			}
		}
		a.tfi[k] = in
	}
	res, err := a.sim.SimulateWithin(c, a.within)
	if err != nil {
		return err
	}
	if ch, ok := e.memo.Select(c, res, a.sim.SignalDiffers, rep, targets, a.tfi[:len(targets)]); ok {
		lac.Apply(c, ch)
	}
	return nil
}

// Evaluate runs STA and error estimation on one circuit and fills an
// Individual.
func (e *Evaluator) Evaluate(c *netlist.Circuit) (*Individual, error) {
	ind, err := e.evaluateWith(e.serial, c)
	if err != nil {
		return nil, err
	}
	e.count++
	return ind, nil
}

// evaluateWith performs one pure candidate evaluation in the given
// arena, replaying an identical candidate's evaluation of the same
// generation when there is one, or waiting for it while it is in flight
// (see evalcache.go). Cache hits replay stored results of identical pure
// evaluations and misses store what they computed, so results are
// bit-identical at any hit pattern — which is what keeps batch evaluation
// order-independent even with a shared cache.
func (e *Evaluator) evaluateWith(a *arena, c *netlist.Circuit) (*Individual, error) {
	if !e.cacheEnabled {
		e.cache.fallbacks.Add(1)
		return e.evaluateFresh(a, c)
	}
	changed, key, ok := e.candidateDiff(c, make([]byte, 0, 64))
	if !ok {
		e.cache.fallbacks.Add(1)
		return e.evaluateFresh(a, c)
	}
	e.cache.lookups.Add(1)
	t, f := e.cache.get(key)
	if t != nil {
		e.cache.hits.Add(1)
		return t.instantiate(c), nil
	}
	ind, err := e.evaluateDiff(a, c, changed)
	if f != nil {
		var t *evalTemplate
		if err == nil {
			t = templateOf(ind)
		}
		e.cache.put(key, f, t)
	}
	return ind, err
}

// evaluateDiff is the plain incremental path for a candidate that shares
// the base's IDs and order and differs from it exactly at changed.
func (e *Evaluator) evaluateDiff(a *arena, c *netlist.Circuit, changed []int) (*Individual, error) {
	s := a.sim
	res, err := s.IncrementalRun(c, changed)
	if err != nil {
		return nil, err
	}
	m, err := e.est.MetricsDelta(c, res, s.SignalDiffers, &a.es)
	if err != nil {
		return nil, err
	}
	// Re-time only the changed gates' cones.
	poArrival := make([]float64, len(c.POs))
	cpd, depth := a.rt.Time(c, changed, poArrival)
	return e.finish(c, m, cpd, depth, poArrival), nil
}

// evaluateFresh is the cache-ineligible evaluation: exactly the pre-reuse
// pipeline (diff, incremental simulation, touched-PO error estimation) and
// a full STA.
func (e *Evaluator) evaluateFresh(a *arena, c *netlist.Circuit) (*Individual, error) {
	res, err := a.sim.Simulate(c)
	if err != nil {
		return nil, err
	}
	m, err := e.est.MetricsDelta(c, res, a.sim.SignalDiffers, &a.es)
	if err != nil {
		return nil, err
	}
	rep, err := sta.Analyze(c, e.lib)
	if err != nil {
		return nil, err
	}
	return e.finish(c, m, rep.CPD, rep.MaxDepth, rep.POArrival), nil
}

// finish turns a candidate's error metrics and timing (CPD, logic depth,
// per-PO arrivals) into a full Individual: area and the Eq. 8 fitness.
func (e *Evaluator) finish(c *netlist.Circuit, m errest.Metrics, cpd float64, depth int, poArrival []float64) *Individual {
	ind := &Individual{
		Circuit:   c,
		Delay:     cpd,
		Depth:     depth,
		Area:      c.Area(e.lib),
		PerPO:     m.PerPO,
		POArrival: poArrival,
	}
	if e.metric == MetricER {
		ind.Err = m.ER
	} else {
		ind.Err = m.NMED
	}
	// Degenerate approximations (POs rewired to PIs/constants) reach zero
	// delay or area; floor both so fitness stays finite and comparable.
	delay, area := ind.Delay, ind.Area
	if delay <= 0 {
		delay = 1e-6
	}
	if area <= 0 {
		area = 1e-6
	}
	ind.Fit = e.wd*(e.refDelay/delay) + (1-e.wd)*(e.refArea/area)
	return ind
}

// EvaluateBatch queues independent, complete candidates on the
// Evaluator's pipeline, drains it and returns their Individuals in input
// order. Each worker owns an arena (a sim.Simulator bound to the accurate
// circuit's golden waveforms and an sta.Retimer bound to its timing
// report), and evaluation is pure, so the results — and the evaluation
// count, bumped once by len(cs) — are bit-identical to evaluating the
// slice serially. The optimizers queue their children one at a time
// (StartPipeline); the benchmark's layer probe times evaluation here.
func (e *Evaluator) EvaluateBatch(cs []*netlist.Circuit) ([]*Individual, error) {
	if len(cs) == 0 {
		return []*Individual{}, nil
	}
	p, err := e.StartPipeline(len(cs))
	if err != nil {
		return nil, err
	}
	for _, c := range cs {
		p.Submit(Task{C: c})
	}
	return p.Wait()
}

// newArena builds an arena. Pipelines take theirs from the pool and
// build more when it runs short; arenas live for the Evaluator's lifetime
// so their scratch amortizes to zero allocation.
func (e *Evaluator) newArena() (*arena, error) {
	s, err := sim.NewSimulator(e.base, e.est.Vectors(), e.est.GoldenResult())
	if err != nil {
		return nil, err
	}
	rt, err := sta.NewRetimer(e.base, e.lib, e.baseRep)
	if err != nil {
		return nil, err
	}
	return &arena{sim: s, rt: rt}, nil
}
