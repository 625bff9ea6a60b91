package als

import "fmt"

// DefaultTopK is how many trade-off solutions a session's Front carries
// unless WithTopK overrides it.
const DefaultTopK = 8

// Option configures a Session. Options replace the zero-value resolution
// of the legacy FlowConfig: a setting is defaulted only when its option
// is absent, so legal zero values — WithDepthWeight(0), the pure-area
// fitness, or WithAreaConRatio(0), the tightest possible area budget —
// are expressible rather than silently swapped for the paper defaults.
// Invalid values are rejected by NewSession immediately, not at Run time.
type Option func(*sessionConfig) error

// sessionConfig accumulates options on top of a FlowConfig. The *Set
// flags distinguish "explicitly zero" from "absent" for the fields whose
// zero value is legal but doubles as the legacy default marker.
type sessionConfig struct {
	cfg            FlowConfig
	depthWeightSet bool
	areaConSet     bool
	seedSet        bool
	topK           int
}

// resolved is the single defaults table of the package: zero-valued
// fields become the paper defaults unless their *Set flag marks them as
// explicitly zero. FlowConfig.resolve delegates here with no flags
// raised, so a session built only from options expressible in FlowConfig
// resolves to the identical configuration — the bit-identity bridge the
// v1 shims and the equivalence suite rely on.
func (sc sessionConfig) resolved() FlowConfig {
	f := sc.cfg
	if f.AreaConRatio == 0 && !sc.areaConSet {
		f.AreaConRatio = 1.0
	}
	if f.DepthWeight == 0 && !sc.depthWeightSet {
		f.DepthWeight = 0.8
	}
	if f.Seed == 0 && !sc.seedSet {
		f.Seed = 1
	}
	pop, iters, vecs := 10, 8, 2048
	if f.Scale == ScalePaper {
		pop, iters, vecs = 30, 20, 1<<17
	}
	if f.Population == 0 {
		f.Population = pop
	}
	if f.Iterations == 0 {
		f.Iterations = iters
	}
	if f.Vectors == 0 {
		f.Vectors = vecs
	}
	return f
}

// WithMetric sets the constrained error measure (default MetricER).
func WithMetric(m Metric) Option {
	return func(sc *sessionConfig) error {
		if m != MetricER && m != MetricNMED {
			return fmt.Errorf("als: unknown metric %v", m)
		}
		sc.cfg.Metric = m
		return nil
	}
}

// WithErrorBudget sets the error constraint (e.g. 0.05 for a 5% ER).
func WithErrorBudget(budget float64) Option {
	return func(sc *sessionConfig) error {
		if budget < 0 {
			return fmt.Errorf("als: negative error budget %v", budget)
		}
		sc.cfg.ErrorBudget = budget
		return nil
	}
}

// WithMethod picks the optimizer (default MethodDCGWO, the paper's
// contribution).
func WithMethod(m Method) Option {
	return func(sc *sessionConfig) error {
		known := false
		for _, k := range AllMethods() {
			if m == k {
				known = true
			}
		}
		if !known {
			return fmt.Errorf("als: unknown method %v", m)
		}
		sc.cfg.Method = m
		return nil
	}
}

// WithScale presets population/iterations/vectors (default ScaleQuick);
// the individual overrides below win over the preset.
func WithScale(s Scale) Option {
	return func(sc *sessionConfig) error {
		if s != ScaleQuick && s != ScalePaper {
			return fmt.Errorf("als: unknown scale %v", s)
		}
		sc.cfg.Scale = s
		return nil
	}
}

// WithDepthWeight sets wd, the fitness weight of the delay objective
// (default the paper's 0.8). Zero is a legal, meaningful setting — the
// pure-area fitness of the paper's Fig. 6 sweep origin — which the legacy
// FlowConfig could not express.
func WithDepthWeight(wd float64) Option {
	return func(sc *sessionConfig) error {
		if wd < 0 || wd > 1 {
			return fmt.Errorf("als: depth weight %v outside [0, 1]", wd)
		}
		sc.cfg.DepthWeight = wd
		sc.depthWeightSet = true
		return nil
	}
}

// WithAreaConRatio scales the post-optimization area budget relative to
// the accurate circuit's area (default 1.0, the paper's TABLE II/III
// setting). Zero is legal: it forces post-optimization to shrink the
// netlist as far as the cell library allows.
func WithAreaConRatio(ratio float64) Option {
	return func(sc *sessionConfig) error {
		if ratio < 0 {
			return fmt.Errorf("als: area constraint ratio %v must be >= 0", ratio)
		}
		sc.cfg.AreaConRatio = ratio
		sc.areaConSet = true
		return nil
	}
}

// WithSeed fixes all stochastic choices (default 1). Unlike the legacy
// FlowConfig, seed 0 is a real seed, not a request for the default.
func WithSeed(seed int64) Option {
	return func(sc *sessionConfig) error {
		sc.cfg.Seed = seed
		sc.seedSet = true
		return nil
	}
}

// WithPopulation overrides the scale preset's population size.
func WithPopulation(n int) Option {
	return func(sc *sessionConfig) error {
		if n < 5 {
			return fmt.Errorf("als: population %d < 5 (need leader + 3 elite + ω)", n)
		}
		sc.cfg.Population = n
		return nil
	}
}

// WithIterations overrides the scale preset's iteration/round budget.
func WithIterations(n int) Option {
	return func(sc *sessionConfig) error {
		if n < 1 {
			return fmt.Errorf("als: iterations %d must be positive", n)
		}
		sc.cfg.Iterations = n
		return nil
	}
}

// WithVectors overrides the scale preset's Monte-Carlo sample size.
func WithVectors(n int) Option {
	return func(sc *sessionConfig) error {
		if n < 64 {
			return fmt.Errorf("als: need at least 64 simulation vectors, got %d", n)
		}
		sc.cfg.Vectors = n
		return nil
	}
}

// WithEvalWorkers caps the goroutines one flow keeps busy, its own
// included (default GOMAXPROCS). Evaluation is pure, so the cap changes
// scheduling only — never results; schedulers running several sessions
// concurrently set it so nested pools don't oversubscribe the machine.
func WithEvalWorkers(n int) Option {
	return func(sc *sessionConfig) error {
		if n < 0 {
			return fmt.Errorf("als: eval workers %d must be >= 0", n)
		}
		sc.cfg.EvalWorkers = n
		return nil
	}
}

// WithTopK caps how many solutions the session's Front carries (default
// DefaultTopK). The front is the non-dominated set truncated to its K
// fittest members before post-optimization.
func WithTopK(k int) Option {
	return func(sc *sessionConfig) error {
		if k < 1 {
			return fmt.Errorf("als: top-K %d must be >= 1", k)
		}
		sc.topK = k
		return nil
	}
}
