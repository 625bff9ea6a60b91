package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/coord"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
)

// runCLI invokes the command's run function with captured output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	return runCLIContext(t, context.Background(), args...)
}

// runCLIContext is runCLI with a caller-supplied context (for simulating
// a SIGINT/SIGTERM interruption, which main delivers as cancellation).
func runCLIContext(t *testing.T, ctx context.Context, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownExperimentListsValidNamesAndExits2(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "fig9")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "fig9"`) {
		t.Fatalf("stderr must name the bad value: %q", stderr)
	}
	for _, name := range exp.Experiments() {
		if !strings.Contains(stderr, name) {
			t.Fatalf("stderr must list valid experiment %q: %q", name, stderr)
		}
	}
	if !strings.Contains(stderr, "all") {
		t.Fatalf("stderr must mention the 'all' pseudo-experiment: %q", stderr)
	}
}

func TestUnknownScaleAndFormatExit2(t *testing.T) {
	if code, _, stderr := runCLI(t, "-scale", "huge"); code != 2 || !strings.Contains(stderr, "unknown scale") {
		t.Fatalf("bad scale: code=%d stderr=%q", code, stderr)
	}
	if code, _, stderr := runCLI(t, "-exp", "table1", "-format", "xml"); code != 2 || !strings.Contains(stderr, "unknown format") {
		t.Fatalf("bad format: code=%d stderr=%q", code, stderr)
	}
}

func TestResumeWithoutOutExits2(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "table2", "-resume")
	if code != 2 || !strings.Contains(stderr, "-resume requires -out") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

func TestTable1FormatsRender(t *testing.T) {
	code, stdout, _ := runCLI(t, "-exp", "table1")
	if code != 0 || !strings.Contains(stdout, "TABLE I") || !strings.Contains(stdout, "Sqrt") {
		t.Fatalf("text: code=%d stdout=%q", code, stdout)
	}
	code, stdout, _ = runCLI(t, "-exp", "table1", "-format", "json")
	if code != 0 || !strings.Contains(stdout, `"experiment": "table1"`) {
		t.Fatalf("json: code=%d stdout=%q", code, stdout)
	}
	code, stdout, _ = runCLI(t, "-exp", "table1", "-format", "csv")
	if code != 0 || !strings.HasPrefix(stdout, "type,circuit,gates") {
		t.Fatalf("csv: code=%d stdout=%q", code, stdout)
	}
}

// cliMatrix is the cheapest real two-table run: one circuit per table, two
// methods, tiny budgets.
func cliMatrix(extra ...string) []string {
	return append([]string{
		"-circuits", "c880,Max16", "-seed", "3",
		"-pop", "6", "-iters", "3", "-vectors", "512",
	}, extra...)
}

func TestJSONOutputByteIdenticalAcrossJobs(t *testing.T) {
	code1, out1, _ := runCLI(t, cliMatrix("-exp", "table2", "-format", "json", "-jobs", "1")...)
	code8, out8, _ := runCLI(t, cliMatrix("-exp", "table2", "-format", "json", "-jobs", "8")...)
	if code1 != 0 || code8 != 0 {
		t.Fatalf("exit codes %d/%d", code1, code8)
	}
	if out1 != out8 {
		t.Fatalf("-jobs 1 and -jobs 8 JSON differ:\n%s\nvs\n%s", out1, out8)
	}
	if !strings.Contains(out1, `"circuit": "c880"`) {
		t.Fatalf("unexpected JSON: %s", out1)
	}
}

func TestOutDirResumeAndRenderedFiles(t *testing.T) {
	dir := t.TempDir()
	args := cliMatrix("-exp", "table3", "-format", "csv", "-out", dir)

	code, out1, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("first run: %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "5 executed") {
		t.Fatalf("first run must execute the 5 cells: %q", stderr)
	}
	storePath := filepath.Join(dir, "results.jsonl")
	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("result store missing: %v", err)
	}
	rendered, err := os.ReadFile(filepath.Join(dir, "table3.csv"))
	if err != nil || string(rendered) != out1 {
		t.Fatalf("rendered file must mirror stdout: err=%v", err)
	}

	// Resumed run: everything cached, byte-identical output.
	code, out2, stderr := runCLI(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resume run: %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, "0 executed, 5 cached") {
		t.Fatalf("resume must serve all cells from cache: %q", stderr)
	}
	if out1 != out2 {
		t.Fatalf("cached output differs:\n%s\nvs\n%s", out1, out2)
	}

	// Without -resume the store is truncated and cells recompute.
	code, _, stderr = runCLI(t, args...)
	if code != 0 || !strings.Contains(stderr, "5 executed, 0 cached") {
		t.Fatalf("fresh run must recompute: code=%d stderr=%q", code, stderr)
	}
}

func TestGoldenUpdateAndCheckRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite runs 15 quick-scale flows")
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	code, _, stderr := runCLI(t, "-update-golden", path)
	if code != 0 {
		t.Fatalf("update-golden: %d, stderr %q", code, stderr)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), exp.GoldenRecipe) {
		t.Fatal("golden file must document its regeneration recipe")
	}

	code, _, stderr = runCLI(t, "-check", path)
	if code != 0 || !strings.Contains(stderr, "golden check passed") {
		t.Fatalf("check after update must pass: code=%d stderr=%q", code, stderr)
	}

	// An injected perturbation must fail the gate with exit 1.
	g, err := exp.LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	g.Cells[0].RatioCPD += 1e-12
	if err := exp.WriteGolden(path, g); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI(t, "-check", path)
	if code != 1 || !strings.Contains(stderr, "golden check FAILED") {
		t.Fatalf("perturbed golden must fail: code=%d stderr=%q", code, stderr)
	}
	if !strings.Contains(stderr, "RatioCPD") {
		t.Fatalf("failure must name the mismatching metric: %q", stderr)
	}
}

// bootAlsd starts one in-process alsd equivalent and returns its URL.
func bootAlsd(t *testing.T) string {
	t.Helper()
	s := service.New(service.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts.URL
}

// bootCoord starts an in-process alscoord equivalent with two registered
// in-process workers and returns its URL.
func bootCoord(t *testing.T) string {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "cluster.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	// The workers never heartbeat, so the interval outlasts the test.
	c, err := coord.New(coord.Options{Store: st, HeartbeatInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
		st.Close()
	})
	for range 2 {
		if _, _, err := c.Register(bootAlsd(t)); err != nil {
			t.Fatal(err)
		}
	}
	return ts.URL
}

// endpoints names both -coord targets: one alsd and a coordinator with
// two registered workers.
func endpoints(t *testing.T) map[string]string {
	return map[string]string{"alsd": bootAlsd(t), "alscoord": bootCoord(t)}
}

// TestCoordJSONByteIdenticalToLocal is the sweep client's contract at the
// CLI surface: running the same sweep on an endpoint must render
// byte-identical machine-readable output to the local pool, because
// every cell is a pure function of its content hash.
func TestCoordJSONByteIdenticalToLocal(t *testing.T) {
	local, localOut, stderr := runCLI(t, cliMatrix("-exp", "table2", "-format", "json", "-jobs", "4")...)
	if local != 0 {
		t.Fatalf("local run: %d, stderr %q", local, stderr)
	}
	for name, url := range endpoints(t) {
		// A URL without a scheme gets http://.
		code, out, stderr := runCLI(t, cliMatrix("-exp", "table2", "-format", "json", "-coord", strings.TrimPrefix(url, "http://"))...)
		if code != 0 {
			t.Fatalf("%s run: %d, stderr %q", name, code, stderr)
		}
		if out != localOut {
			t.Fatalf("%s JSON differs from local:\n%s\nvs\n%s", name, out, localOut)
		}
	}
}

// TestCoordComposesWithResume: a -coord run fills the -out store, and a
// resumed invocation serves every cell from cache without touching the
// (now gone) endpoint.
func TestCoordComposesWithResume(t *testing.T) {
	for name, url := range endpoints(t) {
		dir := t.TempDir()
		args := cliMatrix("-exp", "table3", "-format", "csv", "-out", dir)

		code, out1, stderr := runCLI(t, append(args, "-coord", url)...)
		if code != 0 {
			t.Fatalf("%s run: %d, stderr %q", name, code, stderr)
		}
		if !strings.Contains(stderr, "5 executed") {
			t.Fatalf("%s run must execute the 5 cells: %q", name, stderr)
		}

		code, out2, stderr := runCLI(t, append(args, "-coord", "http://127.0.0.1:1", "-resume")...)
		if code != 0 {
			t.Fatalf("resume run: %d, stderr %q", code, stderr)
		}
		if !strings.Contains(stderr, "0 executed, 5 cached") {
			t.Fatalf("resume must serve all cells from the store: %q", stderr)
		}
		if out1 != out2 {
			t.Fatalf("resumed output differs:\n%s\nvs\n%s", out1, out2)
		}
	}
}

// TestWorkersFlagEmptyURLListExits2: the static-fleet flag is gone, so
// any -workers value is a usage error.
func TestWorkersFlagEmptyURLListExits2(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "table2", "-workers", " , ,")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -workers") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// TestCoordWithJobsExits2: -jobs sizes the local pool, which a -coord run
// does not use.
func TestCoordWithJobsExits2(t *testing.T) {
	code, _, stderr := runCLI(t, "-exp", "table2", "-coord", "http://127.0.0.1:1", "-jobs", "2")
	if code != 2 || !strings.Contains(stderr, "-coord") || !strings.Contains(stderr, "-jobs") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}

// cheapGolden writes a 2-cell golden file from freshly computed tiny
// cells, optionally perturbing every cell so a -check must flag them all.
func cheapGolden(t *testing.T, path string, perturb bool) *exp.Golden {
	t.Helper()
	opts := exp.Opts{Seed: 3, Population: 6, Iterations: 3, Vectors: 512, Circuits: []string{"c880", "Max16"}}
	jobs := append(exp.Table2Jobs(opts)[:1], exp.Table3Jobs(opts)[:1]...)
	rs, _, err := exp.RunJobs(jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, err := exp.NewGolden(jobs, rs)
	if err != nil {
		t.Fatal(err)
	}
	if perturb {
		for i := range g.Cells {
			g.Cells[i].RatioCPD += 1e-12
			g.Cells[i].Evaluations++
		}
	}
	if err := exp.WriteGolden(path, g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCheckReportsEveryMismatchedCellWithGotWant: the gate must list all
// bad cells — each with per-field got/want lines — before exiting 1, not
// stop at the first.
func TestCheckReportsEveryMismatchedCellWithGotWant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	g := cheapGolden(t, path, true)

	code, _, stderr := runCLI(t, "-check", path)
	if code != 1 {
		t.Fatalf("perturbed golden: code=%d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "2 of 2 cell(s) mismatched") {
		t.Fatalf("summary must count every mismatched cell: %q", stderr)
	}
	for _, c := range g.Cells {
		if !strings.Contains(stderr, c.Job.Circuit) {
			t.Fatalf("stderr must name cell %s: %q", c.Job, stderr)
		}
	}
	for _, field := range []string{"RatioCPD", "Evaluations"} {
		if strings.Count(stderr, field) < 2 {
			t.Fatalf("each cell's %s mismatch must be listed: %q", field, stderr)
		}
	}
	if strings.Count(stderr, "got") < 4 || strings.Count(stderr, "want") < 4 {
		t.Fatalf("every field diff must carry got/want: %q", stderr)
	}
}

// TestCheckComposesWithWorkers: the golden gate runs its cells on an
// alsd and on a coordinator's workers and still passes exactly.
func TestCheckComposesWithWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden.json")
	cheapGolden(t, path, false)
	for name, url := range endpoints(t) {
		code, _, stderr := runCLI(t, "-check", path, "-coord", url)
		if code != 0 || !strings.Contains(stderr, "golden check passed") {
			t.Fatalf("%s check must pass: code=%d stderr=%q", name, code, stderr)
		}
	}
}

func TestCheckMissingGoldenFileFails(t *testing.T) {
	code, _, stderr := runCLI(t, "-check", filepath.Join(t.TempDir(), "absent.json"))
	if code != 1 || stderr == "" {
		t.Fatalf("absent golden file: code=%d stderr=%q", code, stderr)
	}
}

// TestInterruptedRunIsResumable simulates a SIGINT/SIGTERM delivery (main
// translates signals into context cancellation): the interrupted run must
// exit 1 with a -resume hint and leave the store in a state a -resume
// invocation completes from.
func TestInterruptedRunIsResumable(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "table3", "-circuits", "Adder16",
		"-pop", "6", "-iters", "2", "-vectors", "256", "-out", dir}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, _, stderr := runCLIContext(t, ctx, args...)
	if code != 1 {
		t.Fatalf("interrupted run exit = %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "-resume") || !strings.Contains(stderr, "interrupted") {
		t.Fatalf("interrupted stderr must hint at -resume: %q", stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "results.jsonl")); err != nil {
		t.Fatalf("interrupted run must leave the store behind: %v", err)
	}

	code, stdout, stderr := runCLI(t, append(args, "-resume")...)
	if code != 0 {
		t.Fatalf("resume exit = %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "TABLE III") || !strings.Contains(stdout, "Adder16") {
		t.Fatalf("resume did not render the table: %q", stdout)
	}
	if !strings.Contains(stderr, "executed") {
		t.Fatalf("resume must report job stats: %q", stderr)
	}
}

// TestInterruptWithoutStoreExplainsDiscard covers the no -out case.
func TestInterruptWithoutStoreExplainsDiscard(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code, _, stderr := runCLIContext(t, ctx, "-exp", "table3", "-circuits", "Adder16",
		"-pop", "6", "-iters", "2", "-vectors", "256")
	if code != 1 || !strings.Contains(stderr, "interrupted") {
		t.Fatalf("code=%d stderr=%q", code, stderr)
	}
}
