package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	als "repro"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/verilog"
)

// Resource guardrails for untrusted API input. They bound one job's cost,
// not correctness: anything under the caps runs exactly like a CLI flow.
const (
	// MaxVerilogBytes bounds an uploaded netlist source.
	MaxVerilogBytes = 4 << 20
	// MaxPopulation bounds the optimizer population override.
	MaxPopulation = 512
	// MaxIterations bounds the iteration/round override.
	MaxIterations = 10000
	// MaxVectors bounds the Monte-Carlo sample override.
	MaxVectors = 1 << 21
)

// Request is the JSON body of a flow submission. Exactly one of Circuit
// (a TABLE I benchmark name) and Verilog (a structural-Verilog netlist
// over the cell library) must be set. Method, metric and scale names are
// parsed case-insensitively ("dcgwo", "nmed", "quick"); every numeric
// field except Metric/Budget is optional and 0 means "the default".
type Request struct {
	// Circuit names a built-in benchmark (e.g. "Adder16", "c880").
	Circuit string `json:"circuit,omitempty"`
	// Verilog is an uploaded structural-Verilog netlist source.
	Verilog string `json:"verilog,omitempty"`
	// Method picks the optimizer (default DCGWO, the paper's method).
	Method string `json:"method,omitempty"`
	// Metric is the constrained error measure: "ER" or "NMED". Required.
	Metric string `json:"metric"`
	// Budget is the error constraint (e.g. 0.05 for 5% ER). Required.
	Budget float64 `json:"budget"`
	// Scale presets the run budget: "quick" (default) or "paper".
	Scale string `json:"scale,omitempty"`
	// Seed fixes all stochastic choices (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DepthWeight overrides wd (0 = the paper's 0.8).
	DepthWeight float64 `json:"depth_weight,omitempty"`
	// AreaConRatio scales the post-optimization area budget (0 = 1.0).
	AreaConRatio float64 `json:"area_con_ratio,omitempty"`
	// Population, Iterations, Vectors override the scale preset (0 = preset).
	Population int `json:"population,omitempty"`
	Iterations int `json:"iterations,omitempty"`
	Vectors    int `json:"vectors,omitempty"`
}

// flowSpec is a validated, canonicalized request: the exp.Job that gives
// the flow its content-hash identity, the parsed enum values, and (for
// uploads) the parsed netlist. Named-benchmark specs hash identically to
// the corresponding cmd/experiments cells, so the daemon's store and an
// experiment sweep's store are interchangeable caches.
type flowSpec struct {
	job    exp.Job
	hash   string
	method als.Method
	metric als.Metric
	scale  als.Scale
	// parsed is the uploaded netlist (nil for named benchmarks, which are
	// rebuilt from the generator at run time).
	parsed *netlist.Circuit
}

// buildCircuit returns a fresh accurate circuit for one run. Every run
// gets its own copy: flows memoize topology on the circuit they are
// handed, so sharing one instance across concurrent runs would race.
func (sp *flowSpec) buildCircuit() (*netlist.Circuit, error) {
	if sp.parsed != nil {
		return sp.parsed.Clone(), nil
	}
	c, err := als.BenchmarkByName(sp.job.Circuit)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return c, nil
}

// validate canonicalizes one untrusted request into a flowSpec, rejecting
// anything malformed, unknown, or over the resource caps.
func validate(req Request) (*flowSpec, error) {
	if (req.Circuit == "") == (req.Verilog == "") {
		return nil, fmt.Errorf("service: exactly one of \"circuit\" and \"verilog\" must be set")
	}
	methodName := req.Method
	if methodName == "" {
		methodName = als.MethodDCGWO.String()
	}
	method, err := als.ParseMethod(methodName)
	if err != nil {
		return nil, fmt.Errorf("service: %w (valid: %s)", err, methodNames())
	}
	if req.Metric == "" {
		return nil, fmt.Errorf("service: \"metric\" is required (ER or NMED)")
	}
	metric, err := als.ParseMetric(req.Metric)
	if err != nil {
		return nil, fmt.Errorf("service: %w (valid: ER, NMED)", err)
	}
	if !(req.Budget > 0) || req.Budget > 1 {
		return nil, fmt.Errorf("service: \"budget\" must be in (0, 1], got %v", req.Budget)
	}
	scaleName := req.Scale
	if scaleName == "" {
		scaleName = als.ScaleQuick.String()
	}
	scale, err := als.ParseScale(scaleName)
	if err != nil {
		return nil, fmt.Errorf("service: %w (valid: quick, paper)", err)
	}
	if req.DepthWeight < 0 || req.DepthWeight > 1 {
		return nil, fmt.Errorf("service: \"depth_weight\" must be in [0, 1], got %v", req.DepthWeight)
	}
	if req.AreaConRatio < 0 {
		return nil, fmt.Errorf("service: \"area_con_ratio\" must be >= 0, got %v", req.AreaConRatio)
	}
	if req.Population != 0 && (req.Population < 5 || req.Population > MaxPopulation) {
		return nil, fmt.Errorf("service: \"population\" must be in [5, %d], got %d", MaxPopulation, req.Population)
	}
	if req.Iterations != 0 && (req.Iterations < 1 || req.Iterations > MaxIterations) {
		return nil, fmt.Errorf("service: \"iterations\" must be in [1, %d], got %d", MaxIterations, req.Iterations)
	}
	if req.Vectors != 0 && (req.Vectors < 64 || req.Vectors > MaxVectors) {
		return nil, fmt.Errorf("service: \"vectors\" must be in [64, %d], got %d", MaxVectors, req.Vectors)
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1 // the convention FlowConfig.resolve and exp.Opts share
	}

	sp := &flowSpec{method: method, metric: metric, scale: scale}
	circuitKey := req.Circuit
	if req.Verilog != "" {
		if len(req.Verilog) > MaxVerilogBytes {
			return nil, fmt.Errorf("service: verilog source exceeds %d bytes", MaxVerilogBytes)
		}
		// Hash and run the canonical form, not the raw upload, so
		// formatting/comment variants of one netlist share a cache entry
		// and the source request() persists validates to the same hash.
		c, canon, err := verilog.Canonical(req.Verilog)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		sum := sha256.Sum256([]byte(canon))
		circuitKey = "verilog:" + hex.EncodeToString(sum[:])
		sp.parsed = c
	} else if _, ok := gen.ByName(req.Circuit); !ok {
		// The cheap existence probe keeps validation off the generator
		// path, but the error unwraps to the same sentinel BenchmarkByName
		// (the runtime path in buildCircuit) would wrap, so the /v2 layer
		// maps it to a status code with errors.Is instead of matching
		// prose — while the message text stays exactly what it always was
		// (a plain %w would append the sentinel's text).
		return nil, &unknownCircuitError{msg: fmt.Sprintf("service: unknown circuit %q (valid: %s)",
			req.Circuit, strings.Join(gen.Names(), ", "))}
	}

	sp.job = exp.Job{
		Circuit:      circuitKey,
		Method:       method.String(),
		Metric:       metric.String(),
		Budget:       req.Budget,
		Scale:        scale.String(),
		Seed:         seed,
		DepthWeight:  req.DepthWeight,
		AreaConRatio: req.AreaConRatio,
		Population:   req.Population,
		Iterations:   req.Iterations,
		Vectors:      req.Vectors,
	}
	h, err := sp.job.Hash()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	sp.hash = h
	return sp, nil
}

// unknownCircuitError keeps the message text byte-stable while
// classifying as als.ErrUnknownBenchmark for errors.Is.
type unknownCircuitError struct{ msg string }

func (e *unknownCircuitError) Error() string { return e.msg }
func (e *unknownCircuitError) Unwrap() error { return als.ErrUnknownBenchmark }

// request rebuilds a resubmittable Request from a validated spec — the
// form the write-ahead log persists. For a named benchmark this is just
// RequestFromJob; an uploaded netlist swaps its opaque "verilog:<sha>"
// circuit key for the canonical re-rendered source, so a crash-replayed
// submission re-validates to the identical content hash (and result) the
// client was promised.
func (sp *flowSpec) request() Request {
	req := RequestFromJob(sp.job)
	if sp.parsed != nil {
		req.Circuit = ""
		req.Verilog = verilog.Write(sp.parsed)
	}
	return req
}

// sessionOptions maps a validated spec onto the option list its run
// uses. Zero-valued overrides stay absent, so the session resolves them
// exactly like the legacy FlowConfig did — keeping the spec's content
// hash and its result bit-identical across the API generations.
func (sp *flowSpec) sessionOptions(evalWorkers int) []als.Option {
	opts := []als.Option{
		als.WithMetric(sp.metric),
		als.WithErrorBudget(sp.job.Budget),
		als.WithMethod(sp.method),
		als.WithScale(sp.scale),
		als.WithSeed(sp.job.Seed),
	}
	if sp.job.DepthWeight != 0 {
		opts = append(opts, als.WithDepthWeight(sp.job.DepthWeight))
	}
	if sp.job.AreaConRatio != 0 {
		opts = append(opts, als.WithAreaConRatio(sp.job.AreaConRatio))
	}
	if sp.job.Population != 0 {
		opts = append(opts, als.WithPopulation(sp.job.Population))
	}
	if sp.job.Iterations != 0 {
		opts = append(opts, als.WithIterations(sp.job.Iterations))
	}
	if sp.job.Vectors != 0 {
		opts = append(opts, als.WithVectors(sp.job.Vectors))
	}
	if evalWorkers != 0 {
		opts = append(opts, als.WithEvalWorkers(evalWorkers))
	}
	return opts
}

func methodNames() string {
	var names []string
	for _, m := range als.AllMethods() {
		names = append(names, m.String())
	}
	return strings.Join(names, ", ")
}
