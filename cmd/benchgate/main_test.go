package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sampleOutput is a realistic -count=3 bench transcript, including noise
// lines parseBench must skip and a second benchmark.
const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: some CPU @ 3.00GHz
BenchmarkFlowSingle-8   	     226	   5136224 ns/op
BenchmarkFlowSingle-8   	     230	   5101833 ns/op
BenchmarkFlowSingle-8   	     228	   5240012 ns/op
BenchmarkSimRunIncremental-8   	  410000	      2913 ns/op
BenchmarkSimRunIncremental-8   	  402000	      2950.5 ns/op
PASS
ok  	repro	12.3s
`

func TestParseBenchTakesMinAcrossRepetitions(t *testing.T) {
	s, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.NsPerOp["BenchmarkFlowSingle"]; got != 5101833 {
		t.Fatalf("FlowSingle min = %v, want 5101833", got)
	}
	if got := s.Runs["BenchmarkFlowSingle"]; got != 3 {
		t.Fatalf("FlowSingle runs = %d, want 3", got)
	}
	if got := s.NsPerOp["BenchmarkSimRunIncremental"]; got != 2913 {
		t.Fatalf("SimRunIncremental min = %v, want 2913 (suffix stripped, fractional parsed)", got)
	}
	if len(s.NsPerOp) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2: %+v", len(s.NsPerOp), s.NsPerOp)
	}
}

func TestGateOneVerdicts(t *testing.T) {
	s := Summary{NsPerOp: map[string]float64{"BenchmarkFlowSingle": 1200}}

	// +20% under a 25% allowance passes.
	if _, err := gateOne(s, "BenchmarkFlowSingle", BenchSpec{NsPerOp: 1000, MaxRegress: 0.25}); err != nil {
		t.Fatalf("+20%% must pass a 25%% gate: %v", err)
	}
	// +20% over a 10% allowance fails and names the numbers.
	_, err := gateOne(s, "BenchmarkFlowSingle", BenchSpec{NsPerOp: 1000, MaxRegress: 0.10})
	if err == nil || !strings.Contains(err.Error(), "REGRESSION") {
		t.Fatalf("+20%% must fail a 10%% gate: %v", err)
	}
	if !strings.Contains(err.Error(), "1200") || !strings.Contains(err.Error(), "1000") {
		t.Fatalf("verdict must carry got and baseline ns/op: %v", err)
	}
	// A zero allowance in the spec falls back to the default (25%).
	if _, err := gateOne(s, "BenchmarkFlowSingle", BenchSpec{NsPerOp: 1000}); err != nil {
		t.Fatalf("+20%% must pass the default gate: %v", err)
	}
	// Missing from the output is an error, not a silent pass.
	if _, err := gateOne(Summary{NsPerOp: map[string]float64{}}, "BenchmarkFlowSingle", BenchSpec{NsPerOp: 1000}); err == nil {
		t.Fatal("missing benchmark in output must error")
	}
}

func TestGateAllCollectsEveryFailure(t *testing.T) {
	s := Summary{NsPerOp: map[string]float64{
		"BenchmarkA": 2000, // 2x regression
		"BenchmarkB": 1000, // exact match
		// BenchmarkC missing from the output entirely
	}}
	b := Baseline{Benches: map[string]BenchSpec{
		"BenchmarkA": {NsPerOp: 1000, MaxRegress: 0.25},
		"BenchmarkB": {NsPerOp: 1000, MaxRegress: 0.25},
		"BenchmarkC": {NsPerOp: 1000, MaxRegress: 0.25},
	}}
	verdicts, failures := gateAll(s, b)
	if len(verdicts) != 1 || !strings.Contains(verdicts[0], "BenchmarkB") {
		t.Fatalf("verdicts = %v, want only BenchmarkB", verdicts)
	}
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want the regression AND the missing bench", failures)
	}
}

func TestRunEndToEndGateAndArtifact(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	artifact := filepath.Join(dir, "BENCH_ci.json")

	// -update writes a baseline with the recipe header and default
	// per-bench allowances.
	var errb strings.Builder
	code := run([]string{"-update", baseline}, strings.NewReader(sampleOutput), &errb)
	if code != 0 {
		t.Fatalf("-update: code=%d stderr=%q", code, errb.String())
	}
	raw, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.Recipe == "" || b.Benches["BenchmarkFlowSingle"].NsPerOp != 5101833 {
		t.Fatalf("baseline malformed: %+v", b)
	}
	if b.Benches["BenchmarkFlowSingle"].MaxRegress != defaultMaxRegress {
		t.Fatalf("fresh baseline must carry the default allowance: %+v", b)
	}

	// A second -update preserves a hand-tightened allowance.
	b.Benches["BenchmarkFlowSingle"] = BenchSpec{NsPerOp: 1, MaxRegress: 0.10}
	tightened, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(baseline, tightened, 0o644); err != nil {
		t.Fatal(err)
	}
	errb.Reset()
	if code := run([]string{"-update", baseline}, strings.NewReader(sampleOutput), &errb); code != 0 {
		t.Fatalf("re-update: code=%d stderr=%q", code, errb.String())
	}
	raw, err = os.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if got := b.Benches["BenchmarkFlowSingle"]; got.MaxRegress != 0.10 || got.NsPerOp != 5101833 {
		t.Fatalf("re-update must refresh ns/op but keep the tightened allowance: %+v", got)
	}
	if got := b.Benches["BenchmarkSimRunIncremental"].MaxRegress; got != defaultMaxRegress {
		t.Fatalf("untouched bench must keep the default allowance: %v", got)
	}

	// Same output against its own baseline passes every gate and emits the
	// artifact.
	errb.Reset()
	code = run([]string{"-baseline", baseline, "-out", artifact}, strings.NewReader(sampleOutput), &errb)
	if code != 0 || strings.Count(errb.String(), "PASS") != 2 {
		t.Fatalf("self-check must PASS both benches: code=%d stderr=%q", code, errb.String())
	}
	var s Summary
	raw, err = os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if s.NsPerOp["BenchmarkFlowSingle"] != 5101833 {
		t.Fatalf("artifact malformed: %+v", s)
	}

	// A 2x slowdown of ONE bench fails the gate with exit 1 (while the
	// other still passes) but still writes the artifact for the upload.
	slow := strings.ReplaceAll(sampleOutput, "5136224 ns/op", "11136224 ns/op")
	slow = strings.ReplaceAll(slow, "5101833 ns/op", "11101833 ns/op")
	slow = strings.ReplaceAll(slow, "5240012 ns/op", "11240012 ns/op")
	errb.Reset()
	code = run([]string{"-baseline", baseline, "-out", artifact}, strings.NewReader(slow), &errb)
	if code != 1 || !strings.Contains(errb.String(), "REGRESSION BenchmarkFlowSingle") {
		t.Fatalf("2x slowdown: code=%d stderr=%q", code, errb.String())
	}
	if !strings.Contains(errb.String(), "PASS BenchmarkSimRunIncremental") {
		t.Fatalf("unaffected bench must still report PASS: %q", errb.String())
	}
	if _, err := os.Stat(artifact); err != nil {
		t.Fatalf("artifact must exist even on failure: %v", err)
	}

	// Usage errors exit 2.
	if code := run(nil, strings.NewReader(""), &errb); code != 2 {
		t.Fatalf("no flags: code=%d, want 2", code)
	}
	if code := run([]string{"-record", filepath.Join(dir, "h.jsonl")}, strings.NewReader(sampleOutput), &errb); code != 2 {
		t.Fatalf("-record without -label: code=%d, want 2", code)
	}
	if code := run([]string{"-history", filepath.Join(dir, "h.jsonl")}, strings.NewReader(""), &errb); code != 2 {
		t.Fatalf("-history without -history-out: code=%d, want 2", code)
	}
	// Empty input exits 1.
	if code := run([]string{"-out", artifact}, strings.NewReader("no benches here"), &errb); code != 1 {
		t.Fatalf("empty input: code=%d, want 1", code)
	}
}

func TestRunHistoryRecordAndRender(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	md := filepath.Join(dir, "BENCH_history.md")

	// Two recorded runs accumulate as two JSONL lines.
	var errb strings.Builder
	if code := run([]string{"-record", history, "-label", "pr5"}, strings.NewReader(sampleOutput), &errb); code != 0 {
		t.Fatalf("record pr5: code=%d stderr=%q", code, errb.String())
	}
	faster := strings.ReplaceAll(sampleOutput, "5101833 ns/op", "4101833 ns/op")
	if code := run([]string{"-record", history, "-label", "pr6"}, strings.NewReader(faster), &errb); code != 0 {
		t.Fatalf("record pr6: code=%d stderr=%q", code, errb.String())
	}
	entries, err := readHistory(history)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Label != "pr5" || entries[1].Label != "pr6" {
		t.Fatalf("history = %+v, want pr5 then pr6", entries)
	}
	if entries[0].Date == "" {
		t.Fatal("history entries must carry a date")
	}
	if entries[1].NsPerOp["BenchmarkFlowSingle"] != 4101833 {
		t.Fatalf("pr6 entry must hold the faster minimum: %+v", entries[1])
	}

	// -history renders one markdown row per entry, columns sorted.
	if code := run([]string{"-history", history, "-history-out", md}, strings.NewReader(""), &errb); code != 0 {
		t.Fatalf("render: code=%d stderr=%q", code, errb.String())
	}
	raw, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw)
	for _, want := range []string{"| pr5 |", "| pr6 |", "FlowSingle", "SimRunIncremental", "4101833"} {
		if !strings.Contains(got, want) {
			t.Fatalf("rendered history missing %q:\n%s", want, got)
		}
	}
	if strings.Index(got, "| pr5 |") > strings.Index(got, "| pr6 |") {
		t.Fatalf("rows must keep entry order:\n%s", got)
	}
}

// memOutput mixes lines with -benchmem's columns (and a custom metric
// before them) and lines without.
const memOutput = `BenchmarkFlowSingle-2   	     300	   3461000 ns/op	 2850000 B/op	    7171 allocs/op
BenchmarkFlowSingle-2   	     310	   3893000 ns/op	 2851000 B/op	    7169 allocs/op
BenchmarkTable2ER-2   	       1	  912000000 ns/op	         0.6992 ratio_cpd_ours	31000000 B/op	  250000 allocs/op
BenchmarkSimRunIncremental-2   	  402000	      2950 ns/op
`

func TestParseBenchReadsAllocsWhenPresent(t *testing.T) {
	s, err := parseBench(strings.NewReader(memOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.AllocsPerOp["BenchmarkFlowSingle"]; got != 7169 {
		t.Fatalf("FlowSingle allocs/op = %v, want the minimum 7169", got)
	}
	if got := s.NsPerOp["BenchmarkFlowSingle"]; got != 3461000 {
		t.Fatalf("FlowSingle ns/op = %v, want 3461000", got)
	}
	if got := s.AllocsPerOp["BenchmarkTable2ER"]; got != 250000 {
		t.Fatalf("Table2ER allocs/op = %v, want 250000 past the custom metric", got)
	}
	if _, ok := s.AllocsPerOp["BenchmarkSimRunIncremental"]; ok {
		t.Fatal("a line without memory columns must record no allocs/op")
	}
	plain, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.AllocsPerOp) != 0 {
		t.Fatalf("output without memory columns must record no allocs/op: %+v", plain.AllocsPerOp)
	}
	raw, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "allocs_per_op") {
		t.Fatalf("allocs_per_op must be omitted when empty: %s", raw)
	}
}

func TestHistoryRendersAllocsBesideOldRows(t *testing.T) {
	dir := t.TempDir()
	history := filepath.Join(dir, "history.jsonl")
	md := filepath.Join(dir, "BENCH_history.md")
	// An entry written before allocs/op was recorded, as committed rows are.
	old := `{"label":"before","date":"2026-10-18","ns_per_op":{"BenchmarkFlowSingle":4607691}}` + "\n"
	if err := os.WriteFile(history, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var errb strings.Builder
	if code := run([]string{"-record", history, "-label", "after"}, strings.NewReader(memOutput), &errb); code != 0 {
		t.Fatalf("record: code=%d stderr=%q", code, errb.String())
	}
	entries, err := readHistory(history)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || len(entries[0].AllocsPerOp) != 0 || entries[1].AllocsPerOp["BenchmarkFlowSingle"] != 7169 {
		t.Fatalf("entries = %+v, want the old row without allocs and the new one with them", entries)
	}
	if code := run([]string{"-history", history, "-history-out", md}, strings.NewReader(""), &errb); code != 0 {
		t.Fatalf("render: code=%d stderr=%q", code, errb.String())
	}
	raw, err := os.ReadFile(md)
	if err != nil {
		t.Fatal(err)
	}
	got := string(raw)
	i := strings.Index(got, "allocs/op:")
	if i < 0 {
		t.Fatalf("rendered history has no allocs/op table:\n%s", got)
	}
	allocs := got[i:]
	for _, want := range []string{"| before | 2026-10-18 | — | — |", "| 7169 | 250000 |", "| FlowSingle | Table2ER |"} {
		if !strings.Contains(allocs, want) {
			t.Fatalf("allocs/op table missing %q:\n%s", want, allocs)
		}
	}
	if !strings.Contains(got[:i], "| before | 2026-10-18 | 4607691 |") {
		t.Fatalf("ns/op table must keep the old row:\n%s", got)
	}
}
