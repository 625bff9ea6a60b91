// Command e2ebench is the repository's end-to-end benchmark: it runs one
// fixed, seeded list of work per workload, checks every output, and
// prints one JSON result line.
//
//	bash e2ebench/run.sh --workload flow-quick --seed 1 --seconds 25 --trace 0
//	bash e2ebench/run.sh --steady 10 --seconds 25
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same list
// untraced and then traced, and reports the per-layer metrics. --steady N
// re-runs the workloads N times each (interleaved, seeds 1..N) as child
// processes and prints every metric's median, quartiles and range. See
// README.md for what each workload and metric is for.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's outcome: operation counts, failures and
// metric values by name.
type report struct {
	attempted, failed int
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail counts one failed operation and explains it on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "e2ebench: FAILED: "+format+"\n", args...)
}

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root (holds go.mod of the program under test)
	work     string // scratch directory inside the checkout
}

var workloads = []string{"flow-quick", "flow-paper", "cluster-mixed"}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same work list")
		seconds  = flag.Int("seconds", 25, "nominal run length; sizes the fixed work list")
		traceOn  = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
		root     = flag.String("root", ".", "checkout root of the program under test")
		steady   = flag.Int("steady", 0, "run every workload this many times (seeds 1..N) and print the spread of each metric")
	)
	flag.Parse()
	// The load model is sized for a 2-vCPU host: in-process flows at
	// GOMAXPROCS 2, a cluster with exactly two flow slots.
	runtime.GOMAXPROCS(2)

	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	work := filepath.Join(absRoot, ".bench_build", "tmp")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fatal(err)
	}
	if *steady > 0 {
		if err := runSteady(*steady, *seconds, *traceOn == 1, absRoot); err != nil {
			fatal(err)
		}
		return
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceOn == 1, root: absRoot, work: work}
	rep := newReport()
	switch cfg.workload {
	case "flow-quick":
		err = runFlowWorkload(cfg, quickWorkload(), rep)
	case "flow-paper":
		err = runFlowWorkload(cfg, paperWorkload(), rep)
	case "cluster-mixed":
		err = runCluster(cfg, rep)
	default:
		err = fmt.Errorf("unknown --workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		fatal(err)
	}
	emit(cfg, rep)
}

// declared is one metric as BENCHMARK.json declares it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaredMetrics reads the metric lists from BENCHMARK.json at the
// checkout root, the one place they are defined.
func declaredMetrics(root string) (endToEnd, perLayer []declared, err error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b.EndToEnd, b.PerLayer, nil
}

// emit prints the result line: every declared metric of the selected
// list, with the ones this workload cannot measure reported as 0 and
// named on the line before.
func emit(cfg config, rep *report) {
	endToEnd, perLayer, err := declaredMetrics(cfg.root)
	if err != nil {
		fatal(err)
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	out := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	var absent []string
	for _, d := range names {
		v, ok := rep.values[d.Name]
		if !ok {
			absent = append(absent, d.Name)
		}
		out.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(absent) > 0 {
		sort.Strings(absent)
		fmt.Printf("absent on %s (reported as 0): %s\n", cfg.workload, strings.Join(absent, " "))
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(1)
}
