// Command tracecat renders distributed-trace exports as text: a Gantt
// timeline per trace with per-span durations, and a critical-path summary
// showing where the wall-clock actually went. It reads the JSONL span
// format written by `experiments -trace-out`, `GET /debug/traces?format=
// jsonl` on any alsd, and trace.WriteJSONL generally.
//
// Inputs merge: pass several files and/or /debug/traces URLs and spans
// are joined by trace ID, so a distributed sweep — the client's export
// plus its alsd endpoint's /debug/traces — renders as one timeline.
//
// Usage:
//
//	experiments -scale quick -trace-out run.jsonl -coord http://h1:8080
//	tracecat -list run.jsonl
//	tracecat -trace 4bf92f3577b34da6a3ce929d0e0e4736 \
//	    run.jsonl http://h1:8080/debug/traces
//
// Without -trace, every trace passing -min-dur is rendered, newest last.
//
// Exit codes: 0 rendered, 1 input error or no matching trace, 2 usage.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracecat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		traceID = fs.String("trace", "", "render only this trace ID (32 hex chars)")
		list    = fs.Bool("list", false, "list the traces in the input, one line each, instead of rendering")
		minDur  = fs.Duration("min-dur", 0, "skip traces shorter than this (e.g. 50ms)")
		width   = fs.Int("width", 64, "timeline bar width in characters")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: tracecat [flags] <spans.jsonl | http://host/debug/traces> ...\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *width < 16 {
		*width = 16
	}

	var recs []trace.SpanRecord
	for _, in := range fs.Args() {
		rs, err := load(in, *traceID)
		if err != nil {
			fmt.Fprintf(stderr, "tracecat: %s: %v\n", in, err)
			return 1
		}
		recs = append(recs, rs...)
	}

	traces := group(recs)
	kept := traces[:0]
	for _, t := range traces {
		if *traceID != "" && t.id != *traceID {
			continue
		}
		if t.dur < *minDur {
			continue
		}
		kept = append(kept, t)
	}
	if len(kept) == 0 {
		switch {
		case *traceID != "":
			fmt.Fprintf(stderr, "tracecat: trace %s not found in input (%d spans read)\n", *traceID, len(recs))
		default:
			fmt.Fprintf(stderr, "tracecat: no traces matched (%d spans read)\n", len(recs))
		}
		return 1
	}

	if *list {
		for _, t := range kept {
			fmt.Fprintf(stdout, "%s  %10s  %3d spans  %d service(s)  %s\n",
				t.id, fmtDur(t.dur), len(t.nodes), len(t.services), t.rootName())
		}
		return 0
	}
	for i, t := range kept {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		t.render(stdout, *width)
	}
	return 0
}

// load reads one input: a JSONL file, or a /debug/traces URL which is
// fetched with format=jsonl (and the -trace filter pushed server-side so
// a busy daemon only ships the spans being asked about).
func load(in, traceID string) ([]trace.SpanRecord, error) {
	if strings.HasPrefix(in, "http://") || strings.HasPrefix(in, "https://") {
		u, err := url.Parse(in)
		if err != nil {
			return nil, err
		}
		q := u.Query()
		q.Set("format", "jsonl")
		if q.Get("limit") == "" {
			q.Set("limit", "1000")
		}
		if traceID != "" {
			q.Set("trace", traceID)
		}
		u.RawQuery = q.Encode()
		resp, err := http.Get(u.String())
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
		}
		return trace.ReadJSONL(resp.Body)
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadJSONL(f)
}

// node is one span plus its resolved children.
type node struct {
	rec      trace.SpanRecord
	children []*node
}

// traceTree is every span sharing one trace ID, linked parent→child.
// Spans whose parent is absent from the input (including remote parents
// when only one side's export was supplied) become additional roots.
type traceTree struct {
	id       string
	roots    []*node
	nodes    []*node
	services map[string]bool
	start    time.Time
	dur      time.Duration
}

// group joins records by trace ID, dedups by span ID (merged inputs
// overlap), builds each tree and returns the traces oldest-first.
func group(recs []trace.SpanRecord) []*traceTree {
	byTrace := map[string][]trace.SpanRecord{}
	seen := map[string]bool{}
	for _, r := range recs {
		k := r.TraceID + "/" + r.SpanID
		if seen[k] {
			continue
		}
		seen[k] = true
		byTrace[r.TraceID] = append(byTrace[r.TraceID], r)
	}
	var out []*traceTree
	for id, rs := range byTrace {
		t := &traceTree{id: id, services: map[string]bool{}}
		byID := map[string]*node{}
		for _, r := range rs {
			n := &node{rec: r}
			byID[r.SpanID] = n
			t.nodes = append(t.nodes, n)
			t.services[r.Service] = true
		}
		var end time.Time
		for _, n := range t.nodes {
			if t.start.IsZero() || n.rec.Start.Before(t.start) {
				t.start = n.rec.Start
			}
			if n.rec.End.After(end) {
				end = n.rec.End
			}
			if p, ok := byID[n.rec.Parent]; ok && n.rec.Parent != n.rec.SpanID {
				p.children = append(p.children, n)
			} else {
				t.roots = append(t.roots, n)
			}
		}
		t.dur = end.Sub(t.start)
		for _, n := range t.nodes {
			sort.Slice(n.children, func(i, j int) bool {
				return n.children[i].rec.Start.Before(n.children[j].rec.Start)
			})
		}
		sort.Slice(t.roots, func(i, j int) bool {
			return t.roots[i].rec.Start.Before(t.roots[j].rec.Start)
		})
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

func (t *traceTree) rootName() string {
	if len(t.roots) == 0 {
		return "?"
	}
	return t.roots[0].rec.Name
}

// render prints the trace header, the Gantt timeline (one line per span,
// depth-first in start order, bar positioned on the shared trace clock)
// and the critical-path summary.
func (t *traceTree) render(w io.Writer, width int) {
	svcs := make([]string, 0, len(t.services))
	for s := range t.services {
		svcs = append(svcs, s)
	}
	sort.Strings(svcs)
	fmt.Fprintf(w, "trace %s  %d spans  %s  [%s]\n",
		t.id, len(t.nodes), fmtDur(t.dur), strings.Join(svcs, ", "))
	for _, r := range t.roots {
		t.renderSpan(w, r, 0, width)
	}
	t.renderCriticalPath(w)
}

func (t *traceTree) renderSpan(w io.Writer, n *node, depth, width int) {
	dur := t.dur
	if dur <= 0 {
		dur = time.Nanosecond
	}
	off := int(float64(n.rec.Start.Sub(t.start)) / float64(dur) * float64(width))
	ln := int(float64(n.rec.Duration())/float64(dur)*float64(width) + 0.5)
	if ln < 1 {
		ln = 1
	}
	if off > width-1 {
		off = width - 1
	}
	if off+ln > width {
		ln = width - off
	}
	bar := strings.Repeat(" ", off) + strings.Repeat("=", ln)
	label := n.rec.Name
	if v, ok := n.rec.Attrs["status"]; ok {
		label += fmt.Sprintf(" [status=%v]", v)
	} else if v, ok := n.rec.Attrs["outcome"]; ok {
		label += fmt.Sprintf(" [outcome=%v]", v)
	}
	fmt.Fprintf(w, "  %-*s %10s  %-14s %s%s\n",
		width, bar, fmtDur(n.rec.Duration()), n.rec.Service, strings.Repeat("  ", depth), label)
	for _, c := range n.children {
		t.renderSpan(w, c, depth+1, width)
	}
}

// renderCriticalPath walks from the first root, at each span descending
// into the child that ends last, and reports each hop's SELF time — its
// duration minus the on-path child's — so the listed percentages say
// where the end-to-end latency was actually spent.
func (t *traceTree) renderCriticalPath(w io.Writer) {
	if len(t.roots) == 0 || t.dur <= 0 {
		return
	}
	var path []*node
	for n := t.roots[0]; n != nil; {
		path = append(path, n)
		var next *node
		for _, c := range n.children {
			if next == nil || c.rec.End.After(next.rec.End) {
				next = c
			}
		}
		n = next
	}
	fmt.Fprintf(w, "critical path (%d hops over %s):\n", len(path), fmtDur(t.dur))
	for i, n := range path {
		self := n.rec.Duration()
		if i+1 < len(path) {
			self -= path[i+1].rec.Duration()
		}
		if self < 0 {
			self = 0
		}
		pct := 100 * float64(self) / float64(t.dur)
		fmt.Fprintf(w, "  %10s %5.1f%%  %s (%s)\n", fmtDur(self), pct, n.rec.Name, n.rec.Service)
	}
}

// fmtDur prints a duration at a precision matched to its magnitude, so
// microsecond spans and minute-long sweeps both read naturally.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Truncate(time.Second).String()
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1e3)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
