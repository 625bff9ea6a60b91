// Command experiments regenerates the paper's tables and figures through
// the job-graph orchestrator: every (experiment, circuit, method, seed,
// budget) cell is one content-hashed job, cells shared between experiments
// run once, and -out/-resume persist finished cells so an interrupted
// sweep picks up where it left off.
//
// Usage:
//
//	experiments -exp table1
//	experiments -exp table2 -scale paper
//	experiments -exp fig7 -circuits c880,Max16 -seed 7
//	experiments -exp all -jobs 8 -out results/ -format json
//	experiments -exp all -out results/ -resume        # after an interruption
//	experiments -check testdata/golden_quick.json     # CI regression gate
//	experiments -update-golden testdata/golden_quick.json
//
// With -coord the cells run on one endpoint over HTTP instead of the
// local pool: a cluster coordinator (alscoord, whose workers join with
// `alsd -register` and are scheduled by observed throughput) or a single
// alsd. Both serve the same worker job API:
//
//	experiments -exp all -coord http://coord:9090 -out results/
//	experiments -check testdata/golden_quick.json -coord http://h1:8080
//
// Finished cells stream into the -out store as they complete, and
// transient endpoint failures retry with capped backoff. An endpoint
// that stays down, or drains, fails the run; a -resume then completes
// it, exactly as after an interrupted local run. Because every cell is a
// pure function of its hash, a -coord run renders byte-identical
// json/csv output to a local run.
//
// -scale quick (default) runs a reduced optimizer budget suitable for a
// laptop; -scale paper uses the paper's N=30, Imax=20 and a 1e5-class
// Monte-Carlo sample. Machine-readable formats (json, csv) omit wall-clock
// runtimes, so their bytes depend only on the job specs — identical for
// any -jobs value and any cache state.
//
// Exit codes: 0 success, 1 runtime error or golden mismatch, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	als "repro"
	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	// SIGINT/SIGTERM cancel the context; every in-flight flow stops at
	// its next iteration boundary, the store (flushed per finished cell)
	// is closed on the way out, and the run exits 1 with a -resume hint —
	// so an interrupted sweep is always resumable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expName  = fs.String("exp", "all", "experiment: "+strings.Join(exp.Experiments(), "|")+"|all")
		scale    = fs.String("scale", "quick", "optimizer budget: quick|paper")
		circuits = fs.String("circuits", "", "comma-separated benchmark subset (default: all)")
		seed     = fs.Int64("seed", 1, "random seed")
		paper    = fs.Bool("paper", true, "print paper reference values next to measurements (text format)")
		pop      = fs.Int("pop", 0, "override population size")
		iters    = fs.Int("iters", 0, "override iterations/rounds")
		vectors  = fs.Int("vectors", 0, "override Monte-Carlo vector count")
		jobs     = fs.Int("jobs", 0, "concurrent local experiment cells (0 = GOMAXPROCS)")
		coordURL = fs.String("coord", "", "alscoord or alsd base URL; run the cells there instead of locally")
		outDir   = fs.String("out", "", "directory for the persistent result store and rendered reports")
		backend  = fs.String("store-backend", "auto", "result-store backend for -out: auto, jsonl or embedded (see docs/STORAGE.md)")
		resume   = fs.Bool("resume", false, "reuse finished cells from the -out result store")
		format   = fs.String("format", "text", "output format: text|json|csv")
		check    = fs.String("check", "", "diff freshly computed metrics against this golden file and exit")
		update   = fs.String("update-golden", "", "recompute the golden suite, write it to this path and exit")
		metrics  = fs.String("metrics-addr", "", "serve Prometheus /metrics on this address for the duration of the run (e.g. 127.0.0.1:9090); empty disables")
		traceOut = fs.String("trace-out", "", "enable tracing and write the coordinator's span export (JSONL, the cmd/tracecat input) to this file when the run ends")
		traceBuf = fs.Int("trace-buf", trace.DefaultCapacity, "span ring-buffer capacity while tracing")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	opts := exp.Opts{Seed: *seed, Population: *pop, Iterations: *iters, Vectors: *vectors}
	sc, err := als.ParseScale(*scale)
	if err != nil {
		fmt.Fprintf(stderr, "unknown scale %q (valid: quick, paper)\n", *scale)
		return 2
	}
	opts.Scale = sc
	if *circuits != "" {
		opts.Circuits = strings.Split(*circuits, ",")
		// A typo'd name would otherwise just silently shrink the matrix
		// (circuitSet intersects with the experiment's kind set). The name
		// list is enough — building the netlists is the job runner's work.
		for _, name := range opts.Circuits {
			if !slices.Contains(als.BenchmarkNames(), name) {
				fmt.Fprintf(stderr, "unknown benchmark %q (valid: %s)\n",
					name, strings.Join(als.BenchmarkNames(), ", "))
				return 2
			}
		}
	}

	// -trace-out records the whole invocation as one trace: a root span
	// here, then either the local pool's job/generation spans or the
	// dispatch sweep and its per-request spans (an alsd endpoint continues
	// the same trace ID via traceparent). The export is written on every
	// exit path so an interrupted run still leaves its timeline behind.
	var (
		tracer   *trace.Tracer
		rootSpan *trace.Span
	)
	if *traceOut != "" {
		tracer = trace.New(trace.Options{Service: "experiments", Capacity: *traceBuf})
		rootSpan = tracer.StartRoot("experiments.run")
		rootSpan.SetAttr("exp", *expName)
		rootSpan.SetAttr("scale", *scale)
		ctx = trace.ContextWith(ctx, rootSpan)
		fmt.Fprintf(stderr, "trace %s\n", rootSpan.TraceID())
		defer func() {
			rootSpan.End()
			if err := writeTrace(*traceOut, tracer); err != nil {
				fmt.Fprintf(stderr, "trace export: %v\n", err)
				return
			}
			fmt.Fprintf(stderr, "trace export: %s (render: tracecat %s)\n", *traceOut, *traceOut)
		}()
	}

	// -metrics-addr makes a long sweep observable from outside: a tiny
	// HTTP server exposes the dispatch lane counters plus the -out store
	// traffic for the run's duration.
	var (
		reg *telemetry.Registry
		dm  *dispatch.Metrics
	)
	if *metrics != "" {
		reg = telemetry.NewRegistry()
		dm = dispatch.NewMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /debug/traces", tracer.Handler())
		ms := &http.Server{Addr: *metrics, Handler: mux}
		go func() {
			if err := ms.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(stderr, "metrics server: %v\n", err)
			}
		}()
		defer ms.Close()
		fmt.Fprintf(stderr, "metrics on http://%s/metrics\n", *metrics)
	}

	if *coordURL != "" && *jobs != 0 {
		fmt.Fprintln(stderr, "-coord and -jobs are mutually exclusive (-jobs sizes the local pool; a -coord run executes nothing locally)")
		return 2
	}
	runner := newJobRunner(*coordURL, *jobs, dm, tracer, stderr)

	if *update != "" {
		return updateGolden(ctx, *update, *seed, runner, stderr)
	}
	if *check != "" {
		return checkGolden(ctx, *check, runner, stderr)
	}

	names, err := expandExperiments(*expName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "unknown format %q (valid: text, json, csv)\n", *format)
		return 2
	}
	if *resume && *outDir == "" {
		fmt.Fprintln(stderr, "-resume requires -out (there is no store to resume from)")
		return 2
	}

	var st *store.Store
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		path := filepath.Join(*outDir, "results.jsonl")
		if !*resume {
			// A fresh (non-resume) run must not serve stale cells, and must
			// not leave rendered reports from an earlier run (possibly with
			// different opts) lying next to this run's output.
			stale := []string{path}
			for _, n := range exp.Experiments() {
				for _, ext := range []string{"txt", "json", "csv"} {
					stale = append(stale, filepath.Join(*outDir, n+"."+ext))
				}
			}
			for _, f := range stale {
				if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
					fmt.Fprintln(stderr, err)
					return 1
				}
			}
		}
		st, err = store.OpenKind(*backend, path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer st.Close()
		if reg != nil {
			st.Instrument(
				reg.Counter("als_store_puts_total", "Records appended to the persistent result store."),
				reg.Counter("als_store_gets_total", "Lookups against the persistent result store."),
				reg.Counter("als_store_hits_total", "Persistent-store lookups that found a record."))
		}
		if n := st.Corrupt(); n > 0 {
			fmt.Fprintf(stderr, "result store: skipped %d corrupt line(s), kept %d finished cell(s)\n", n, st.Len())
		}
	}

	var jobList []exp.Job
	for _, name := range names {
		js, err := exp.JobsFor(name, opts)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		jobList = append(jobList, js...)
	}
	rs, stats, err := runner(ctx, jobList, st)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			if st != nil {
				fmt.Fprintf(stderr, "interrupted: %d finished cell(s) flushed to %s; re-run with -resume to continue\n",
					st.Len(), st.Path())
			} else {
				fmt.Fprintln(stderr, "interrupted (no -out store; finished work was discarded)")
			}
			return 1
		}
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "jobs: %d executed, %d cached, %d deduplicated\n",
		stats.Executed, stats.Cached, stats.Deduped)

	for _, name := range names {
		text, err := renderExperiment(name, opts, rs, *format, *paper)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		fmt.Fprint(stdout, text)
		if *outDir != "" {
			file := filepath.Join(*outDir, name+"."+formatExt(*format))
			if err := os.WriteFile(file, []byte(text), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}

// jobRunner abstracts where cells execute: the local worker pool, or one
// -coord endpoint. Either way the ResultSet is keyed by content hash and
// carries identical deterministic metrics, so everything downstream
// (rendering, golden checks, stores) is oblivious to the choice.
type jobRunner func(ctx context.Context, jobs []exp.Job, st *store.Store) (exp.ResultSet, exp.RunStats, error)

// newJobRunner builds the runner for this invocation: a local pool of
// `localJobs` goroutines without -coord, the dispatch client of the
// endpoint with it.
func newJobRunner(endpoint string, localJobs int, dm *dispatch.Metrics, tracer *trace.Tracer, stderr io.Writer) jobRunner {
	if endpoint == "" {
		return func(ctx context.Context, jobs []exp.Job, st *store.Store) (exp.ResultSet, exp.RunStats, error) {
			return exp.RunJobsContext(ctx, jobs, localJobs, st)
		}
	}
	if !strings.Contains(endpoint, "://") {
		endpoint = "http://" + endpoint
	}
	return func(ctx context.Context, jobs []exp.Job, st *store.Store) (exp.ResultSet, exp.RunStats, error) {
		return dispatch.Run(ctx, jobs, dispatch.Options{
			Endpoint: endpoint,
			Store:    st,
			Metrics:  dm,
			Tracer:   tracer,
			Logger:   slog.New(slog.NewTextHandler(stderr, nil)),
		})
	}
}

// writeTrace dumps the tracer's buffered spans as JSONL.
func writeTrace(path string, tracer *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// expandExperiments resolves the -exp flag, listing the valid names in the
// error for an unknown value.
func expandExperiments(name string) ([]string, error) {
	if name == "all" {
		return exp.Experiments(), nil
	}
	for _, n := range exp.Experiments() {
		if n == name {
			return []string{name}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)",
		name, strings.Join(exp.Experiments(), ", "))
}

func formatExt(format string) string {
	if format == "text" {
		return "txt"
	}
	return format
}

// renderExperiment renders one experiment from the result set in the
// requested format.
func renderExperiment(name string, opts exp.Opts, rs exp.ResultSet, format string, paper bool) (string, error) {
	switch format {
	case "json":
		doc, err := exp.JSONReport(name, opts, rs)
		if err != nil {
			return "", err
		}
		return exp.MarshalReport(doc)
	case "csv":
		return exp.CSVReport(name, opts, rs)
	}

	var b strings.Builder
	switch name {
	case "table1":
		rows, err := exp.Table1()
		if err != nil {
			return "", err
		}
		b.WriteString("== TABLE I: benchmark statistics ==\n")
		b.WriteString(exp.RenderTable1(rows))

	case "table2":
		tab, err := exp.Table2From(opts, rs)
		if err != nil {
			return "", err
		}
		b.WriteString("== TABLE II: 5% ER constraint, random/control circuits ==\n")
		b.WriteString(exp.RenderCompare(tab))
		if paper {
			b.WriteString(paperAverages(exp.PaperTable2))
		}

	case "table3":
		tab, err := exp.Table3From(opts, rs)
		if err != nil {
			return "", err
		}
		b.WriteString("== TABLE III: 2.44% NMED constraint, arithmetic circuits ==\n")
		b.WriteString(exp.RenderCompare(tab))
		if paper {
			b.WriteString(paperAverages(exp.PaperTable3))
		}

	case "fig6":
		series, err := exp.Fig6From(opts, rs)
		if err != nil {
			return "", err
		}
		b.WriteString(exp.RenderWeights(series))

	case "fig7":
		er, nmed, err := exp.Fig7From(opts, rs)
		if err != nil {
			return "", err
		}
		b.WriteString(exp.RenderSweep("Fig. 7(a): Ratiocpd vs ER constraint (random/control)", "ER", er))
		b.WriteString(exp.RenderSweep("Fig. 7(b): Ratiocpd vs NMED constraint (arithmetic)", "NMED", nmed))

	case "fig8":
		er, nmed, err := exp.Fig8From(opts, rs)
		if err != nil {
			return "", err
		}
		b.WriteString(exp.RenderSweep("Fig. 8(a): Ratiocpd vs area constraint (5% ER)", "Areacon ratio", er))
		b.WriteString(exp.RenderSweep("Fig. 8(b): Ratiocpd vs area constraint (2.44% NMED)", "Areacon ratio", nmed))

	default:
		return "", fmt.Errorf("unknown experiment %q", name)
	}
	b.WriteString("\n")
	return b.String(), nil
}

func paperAverages(table map[string]map[string]exp.PaperCell) string {
	avg := exp.PaperAverages(table)
	var b strings.Builder
	fmt.Fprintf(&b, "Paper averages:    ")
	for _, m := range als.AllMethods() {
		fmt.Fprintf(&b, " | %8.4f %9s", avg[m.String()], "")
	}
	b.WriteString("\n")
	return b.String()
}

// checkGolden is the CI regression gate: recompute the golden file's cells
// and require exact metric equality. Every mismatched cell is reported —
// with a got/want line per differing field — before the nonzero exit, so
// one CI run shows the full blast radius of a metrics change.
func checkGolden(ctx context.Context, path string, runner jobRunner, stderr io.Writer) int {
	g, err := exp.LoadGolden(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	rs, stats, err := runner(ctx, g.Jobs(), nil)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if diffs := exp.DiffGolden(g, rs); len(diffs) > 0 {
		fmt.Fprintf(stderr, "golden check FAILED against %s: %d of %d cell(s) mismatched\n",
			path, len(diffs), len(g.Cells))
		for _, d := range diffs {
			fmt.Fprintf(stderr, "  %s\n", d.Job)
			if d.Missing {
				fmt.Fprintf(stderr, "    missing result\n")
				continue
			}
			for _, f := range d.Fields {
				fmt.Fprintf(stderr, "    %-12s got %-24s want %s\n", f.Field, f.Got, f.Want)
			}
		}
		fmt.Fprintf(stderr, "after an intentional metrics change, regenerate with: %s\n", exp.GoldenRecipe)
		return 1
	}
	fmt.Fprintf(stderr, "golden check passed: %d cell(s) match %s exactly (%d executed)\n",
		len(g.Cells), path, stats.Executed)
	return 0
}

// updateGolden recomputes the quick-scale golden suite and rewrites the
// committed reference.
func updateGolden(ctx context.Context, path string, seed int64, runner jobRunner, stderr io.Writer) int {
	jobs := exp.GoldenJobs(seed)
	rs, _, err := runner(ctx, jobs, nil)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	g, err := exp.NewGolden(jobs, rs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := exp.WriteGolden(path, g); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stderr, "wrote %d golden cell(s) to %s\n", len(g.Cells), path)
	return 0
}
