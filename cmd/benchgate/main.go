// Command benchgate turns `go test -bench` output into a machine-readable
// summary and gates CI on a committed baseline: it reads benchmark output
// on stdin, takes the best (minimum) ns/op per benchmark across -count
// repetitions — the least-noise estimator on shared runners — and, on
// lines that carry -benchmem's columns, the minimum allocs/op, writes the
// summary JSON (the BENCH_ci.json workflow artifact), and exits 1 when ANY
// baseline benchmark regressed beyond its allowed fraction. Every bench in
// the baseline is gated; failures are collected, not short-circuited.
//
// Usage:
//
//	go test -run='^$' -bench='^(BenchmarkFlowSingle|...)$' -benchmem -count=5 . |
//	    go run ./cmd/benchgate -baseline testdata/bench_baseline.json -out BENCH_ci.json
//
// After an intentional performance change (or on a new reference machine),
// regenerate the baseline with the recipe in the baseline file itself —
// per-bench regression allowances are preserved across -update. -update
// refreshes the benches the run measured and keeps every other entry as
// it is, so `go test -bench='^BenchmarkX$' ... | benchgate -update FILE`
// adds or refreshes BenchmarkX alone.
//
// The committed bench history is maintained with the same tool:
// `-record FILE -label L` appends one JSONL entry holding this run's
// per-bench minima, and `-history FILE -history-out MD` renders the whole
// trajectory as a markdown table (BENCH_history.md).
//
// Exit codes: 0 pass, 1 regression or missing data, 2 usage error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Summary is the machine-readable digest of one bench run (the CI
// artifact). NsPerOp holds the minimum across repetitions; Runs counts
// how many repetitions fed each minimum. AllocsPerOp holds the minimum
// allocs/op of the benches whose lines carry it; it is not gated.
type Summary struct {
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	Runs        map[string]int     `json:"runs"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// BenchSpec is one benchmark's committed reference point: its baseline
// ns/op and the relative regression its gate allows.
type BenchSpec struct {
	NsPerOp    float64 `json:"ns_per_op"`
	MaxRegress float64 `json:"max_regress"`
}

// Baseline is the committed reference (testdata/bench_baseline.json).
// Every benchmark listed here is gated on every CI run.
type Baseline struct {
	// Recipe documents how to regenerate the file.
	Recipe  string               `json:"_recipe"`
	Benches map[string]BenchSpec `json:"benches"`
}

// HistoryEntry is one line of the JSONL bench history: a labeled snapshot
// of the per-bench minima at one point in the repo's trajectory.
type HistoryEntry struct {
	Label       string             `json:"label"`
	Date        string             `json:"date"`
	NsPerOp     map[string]float64 `json:"ns_per_op"`
	AllocsPerOp map[string]float64 `json:"allocs_per_op,omitempty"`
}

// baselineRecipe is written into updated baselines.
const baselineRecipe = "go test -run='^$' -bench='^(BenchmarkFlowSingle|BenchmarkFlowPaper|BenchmarkFlowGreedy|BenchmarkSimRunIncremental|BenchmarkEvaluateBatch|BenchmarkEvaluateBatchShared|BenchmarkEvaluateBatchWide|BenchmarkEvaluateBatchPaper|BenchmarkEvaluateBatchPaperER|BenchmarkLACSearchPaper|BenchmarkPostOptimize|BenchmarkCandidateClone|BenchmarkLaneRoundTrip)$' -benchmem -count=5 . | go run ./cmd/benchgate -update testdata/bench_baseline.json"

// defaultMaxRegress is the gate allowance for benches whose baseline entry
// does not carry one yet.
const defaultMaxRegress = 0.25

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkFlowSingle-8   	     226	   5136224 ns/op
//	BenchmarkFlowSingle-8   	     226	   5136224 ns/op	 3240512 B/op	   25701 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped so summaries compare across
// machines with different core counts. The memory columns (-benchmem or
// b.ReportAllocs) are optional, and b.ReportMetric columns may precede
// them; group 3 holds allocs/op when present.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*\s([0-9.]+) allocs/op)?`)

// parseBench aggregates bench output into a Summary.
func parseBench(r io.Reader) (Summary, error) {
	s := Summary{NsPerOp: map[string]float64{}, Runs: map[string]int{}, AllocsPerOp: map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return s, fmt.Errorf("benchgate: bad ns/op in %q: %w", sc.Text(), err)
		}
		name := m[1]
		if prev, ok := s.NsPerOp[name]; !ok || ns < prev {
			s.NsPerOp[name] = ns
		}
		s.Runs[name]++
		if m[3] == "" {
			continue
		}
		allocs, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return s, fmt.Errorf("benchgate: bad allocs/op in %q: %w", sc.Text(), err)
		}
		if prev, ok := s.AllocsPerOp[name]; !ok || allocs < prev {
			s.AllocsPerOp[name] = allocs
		}
	}
	return s, sc.Err()
}

// gateOne checks one benchmark of the summary against its baseline spec,
// returning a human-readable verdict.
func gateOne(s Summary, name string, spec BenchSpec) (string, error) {
	got, ok := s.NsPerOp[name]
	if !ok {
		return "", fmt.Errorf("benchgate: %s missing from the bench output (names: %s)", name, strings.Join(names(s.NsPerOp), ", "))
	}
	maxRegress := spec.MaxRegress
	if maxRegress <= 0 {
		maxRegress = defaultMaxRegress
	}
	limit := spec.NsPerOp * (1 + maxRegress)
	delta := (got - spec.NsPerOp) / spec.NsPerOp * 100
	verdict := fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%+.1f%%, limit +%.0f%%)",
		name, got, spec.NsPerOp, delta, maxRegress*100)
	if got > limit {
		return "", fmt.Errorf("benchgate: REGRESSION %s", verdict)
	}
	return verdict, nil
}

// gateAll gates every baseline benchmark, collecting all verdicts and all
// failures (a regression in one bench must not hide another's).
func gateAll(s Summary, b Baseline) (verdicts []string, failures []error) {
	for _, name := range benchNames(b.Benches) {
		v, err := gateOne(s, name, b.Benches[name])
		if err != nil {
			failures = append(failures, err)
			continue
		}
		verdicts = append(verdicts, v)
	}
	return verdicts, failures
}

func names(m map[string]float64) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	if len(out) == 0 {
		return []string{"(none)"}
	}
	return out
}

func benchNames(m map[string]BenchSpec) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// readBaseline loads a committed baseline file.
func readBaseline(path string) (Baseline, error) {
	var b Baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, fmt.Errorf("benchgate: %w", err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("benchgate: baseline %s: %w", path, err)
	}
	if len(b.Benches) == 0 {
		return b, fmt.Errorf("benchgate: baseline %s lists no benches", path)
	}
	return b, nil
}

// updateBaseline refreshes the baseline with the summary: each measured
// bench gets the run's ns/op and keeps its regression allowance (a
// tightened gate must survive a number refresh), and each bench the run
// did not measure keeps its entry unchanged.
func updateBaseline(path string, s Summary) (Baseline, error) {
	b := Baseline{Recipe: baselineRecipe, Benches: map[string]BenchSpec{}}
	if old, err := readBaseline(path); err == nil {
		b.Benches = old.Benches
	}
	for name, ns := range s.NsPerOp {
		spec := BenchSpec{NsPerOp: ns, MaxRegress: defaultMaxRegress}
		if p, ok := b.Benches[name]; ok && p.MaxRegress > 0 {
			spec.MaxRegress = p.MaxRegress
		}
		b.Benches[name] = spec
	}
	return b, writeJSON(path, b)
}

// appendHistory appends one labeled JSONL entry with the run's minima.
func appendHistory(path, label string, s Summary) error {
	entry := HistoryEntry{Label: label, Date: time.Now().UTC().Format("2006-01-02"), NsPerOp: s.NsPerOp, AllocsPerOp: s.AllocsPerOp}
	raw, err := json.Marshal(entry)
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	defer f.Close()
	if _, err := f.Write(append(raw, '\n')); err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	return f.Close()
}

// readHistory parses a JSONL history file in entry order.
func readHistory(path string) ([]HistoryEntry, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchgate: %w", err)
	}
	var out []HistoryEntry
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e HistoryEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("benchgate: history %s: %w", path, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// renderHistory turns the history into markdown: a table of ns/op, one
// row per entry and one column per benchmark ever recorded, then, when
// any entry recorded allocs/op, the same table of allocs/op (missing
// cells dashed in both).
func renderHistory(entries []HistoryEntry) string {
	var sb strings.Builder
	sb.WriteString("# Bench history\n\n")
	sb.WriteString("Per-PR trajectory of the committed bench family: minimum ns/op (and,\n")
	sb.WriteString("where recorded, allocs/op) across `-count` repetitions on the reference\n")
	sb.WriteString("machine, one row per recorded run. Regenerate with:\n\n")
	sb.WriteString("    go run ./cmd/benchgate -history testdata/bench_history.jsonl -history-out BENCH_history.md\n\n")
	sb.WriteString("Append a new row after a perf-relevant change with:\n\n")
	sb.WriteString("    go test -run='^$' -bench='...' -benchmem -count=5 . | go run ./cmd/benchgate -record testdata/bench_history.jsonl -label <pr>\n\n")
	writeHistoryTable(&sb, entries, func(e HistoryEntry) map[string]float64 { return e.NsPerOp })
	for _, e := range entries {
		if len(e.AllocsPerOp) > 0 {
			sb.WriteString("\nallocs/op:\n\n")
			writeHistoryTable(&sb, entries, func(e HistoryEntry) map[string]float64 { return e.AllocsPerOp })
			break
		}
	}
	return sb.String()
}

// writeHistoryTable writes one markdown table of the values col picks
// from each entry.
func writeHistoryTable(sb *strings.Builder, entries []HistoryEntry, col func(HistoryEntry) map[string]float64) {
	cols := map[string]bool{}
	for _, e := range entries {
		for name := range col(e) {
			cols[name] = true
		}
	}
	var benches []string
	for n := range cols {
		benches = append(benches, n)
	}
	sort.Strings(benches)
	sb.WriteString("| label | date |")
	for _, b := range benches {
		fmt.Fprintf(sb, " %s |", strings.TrimPrefix(b, "Benchmark"))
	}
	sb.WriteString("\n|---|---|")
	for range benches {
		sb.WriteString("---|")
	}
	sb.WriteString("\n")
	for _, e := range entries {
		fmt.Fprintf(sb, "| %s | %s |", e.Label, e.Date)
		for _, b := range benches {
			if v, ok := col(e)[b]; ok {
				fmt.Fprintf(sb, " %.0f |", v)
			} else {
				sb.WriteString(" — |")
			}
		}
		sb.WriteString("\n")
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stderr))
}

func run(args []string, stdin io.Reader, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "", "committed baseline JSON; every bench listed there is gated")
		outPath      = fs.String("out", "", "write the parsed summary JSON here (the CI artifact)")
		updatePath   = fs.String("update", "", "refresh this baseline with stdin's results, keeping the benches they lack, and exit")
		recordPath   = fs.String("record", "", "append stdin's results as one JSONL history entry to this file")
		labelFlag    = fs.String("label", "", "history entry label (e.g. the PR), required with -record")
		historyPath  = fs.String("history", "", "JSONL history file to render as markdown")
		historyOut   = fs.String("history-out", "", "write the rendered markdown here, required with -history")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	needStdin := *updatePath != "" || *baselinePath != "" || *outPath != "" || *recordPath != ""
	if !needStdin && *historyPath == "" {
		fmt.Fprintln(stderr, "benchgate: nothing to do: need -baseline, -out, -update, -record or -history")
		return 2
	}
	if *recordPath != "" && *labelFlag == "" {
		fmt.Fprintln(stderr, "benchgate: -record requires -label")
		return 2
	}
	if (*historyPath == "") != (*historyOut == "") {
		fmt.Fprintln(stderr, "benchgate: -history and -history-out must be used together")
		return 2
	}

	var summary Summary
	if needStdin {
		var err error
		summary, err = parseBench(stdin)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if len(summary.NsPerOp) == 0 {
			fmt.Fprintln(stderr, "benchgate: no benchmark lines found on stdin")
			return 1
		}
	}

	if *updatePath != "" {
		b, err := updateBaseline(*updatePath, summary)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "benchgate: wrote baseline for %d benchmark(s) to %s\n", len(b.Benches), *updatePath)
		return 0
	}

	if *outPath != "" {
		if err := writeJSON(*outPath, summary); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if *recordPath != "" {
		if err := appendHistory(*recordPath, *labelFlag, summary); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "benchgate: recorded %q in %s\n", *labelFlag, *recordPath)
	}
	failed := false
	if *baselinePath != "" {
		baseline, err := readBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		verdicts, failures := gateAll(summary, baseline)
		for _, v := range verdicts {
			fmt.Fprintf(stderr, "benchgate: PASS %s\n", v)
		}
		for _, err := range failures {
			fmt.Fprintln(stderr, err)
		}
		if len(failures) > 0 {
			fmt.Fprintf(stderr, "benchgate: %d of %d gated benchmark(s) failed; after an intentional change, regenerate with: %s\n",
				len(failures), len(baseline.Benches), baselineRecipe)
			failed = true
		}
	}
	if *historyPath != "" {
		entries, err := readHistory(*historyPath)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := os.WriteFile(*historyOut, []byte(renderHistory(entries)), 0o644); err != nil {
			fmt.Fprintln(stderr, fmt.Errorf("benchgate: %w", err))
			return 1
		}
		fmt.Fprintf(stderr, "benchgate: rendered %d history entr(ies) to %s\n", len(entries), *historyOut)
	}
	if failed {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("benchgate: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
