package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Options{Service: "test"})
	root := tr.StartRoot("root")
	sc := root.Context()
	if !sc.Valid() {
		t.Fatalf("root span context invalid: %+v", sc)
	}
	header := sc.Traceparent()
	if len(header) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", header, len(header))
	}
	back, err := ParseTraceparent(header)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", header, err)
	}
	if back != sc {
		t.Fatalf("round trip changed the context: %+v != %+v", back, sc)
	}
}

// validTraceparents parse to trace ID 4bf92f…4736 and span ID
// 00f067aa0ba902b7 with the given sampled flag.
var validTraceparents = []struct {
	in      string
	sampled bool
}{
	{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", true},
	{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00", false},
	// Unknown flag bits: only bit 0 is interpreted.
	{"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-03", true},
	// A future version with trailing data parses as version 00.
	{"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", true},
}

// malformedTraceparents must all be refused.
var malformedTraceparents = []string{
	"",
	"00",
	"garbage",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",     // missing flags
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-",    // empty flags
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-0",   // short flags
	"0-4bf92f3577b34da6a3ce929d0e0e47366-00f067aa0ba902b7-01",  // short version
	"00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b70-01",  // 31-digit trace id
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",  // uppercase hex
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",  // uppercase span
	"00-zzf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // non-hex trace
	"00-4bf92f3577b34da6a3ce929d0e0e4736-zzf067aa0ba902b7-01",  // non-hex span
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01",  // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",  // zero span id
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // forbidden version
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // v00 trailing junk
	"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", // unseparated trailer
	"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",  // wrong separator
	"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7_01",
}

func TestTraceparentParseValid(t *testing.T) {
	for _, tc := range validTraceparents {
		sc, err := ParseTraceparent(tc.in)
		if err != nil {
			t.Errorf("ParseTraceparent(%q): unexpected error %v", tc.in, err)
			continue
		}
		if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("ParseTraceparent(%q): trace id %s", tc.in, sc.TraceID)
		}
		if sc.SpanID.String() != "00f067aa0ba902b7" {
			t.Errorf("ParseTraceparent(%q): span id %s", tc.in, sc.SpanID)
		}
		if sc.Sampled != tc.sampled {
			t.Errorf("ParseTraceparent(%q): sampled = %v, want %v", tc.in, sc.Sampled, tc.sampled)
		}
	}
}

func TestTraceparentParseMalformed(t *testing.T) {
	for _, corpus := range malformedTraceparents {
		if sc, err := ParseTraceparent(corpus); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input: %+v", corpus, sc)
		}
	}
}

// FuzzParseTraceparent: ParseTraceparent never panics and never accepts
// uppercase hex or an all-zero ID, and an accepted header renders
// (Traceparent) to one that parses back to the same SpanContext and
// renders to itself. Seeds: the valid and malformed tables, plus every
// single-byte mutation of a valid header to a NUL, a separator, a
// non-hex letter, an uppercase letter or 0xff.
func FuzzParseTraceparent(f *testing.F) {
	for _, tc := range validTraceparents {
		f.Add(tc.in)
	}
	for _, s := range malformedTraceparents {
		f.Add(s)
	}
	base := validTraceparents[0].in
	for i := 0; i <= len(base); i++ {
		for _, c := range []byte{0, '-', 'g', 'Z', 0xff} {
			f.Add(base[:i] + string(c) + base[min(i+1, len(base)):])
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		// Every accepted header has the fixed 55-byte prefix, whose four
		// hex fields must be lowercase.
		if strings.ContainsAny(s[:55], "ABCDEF") {
			t.Fatalf("accepted uppercase hex in %q", s)
		}
		if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
			t.Fatalf("accepted an all-zero ID in %q: %+v", s, sc)
		}
		h := sc.Traceparent()
		back, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("accepted %q but its rendering %q does not parse: %v", s, h, err)
		}
		if back != sc {
			t.Fatalf("%q re-parsed from %q as %+v, want %+v", h, s, back, sc)
		}
		if back.Traceparent() != h {
			t.Fatalf("rendering of %q is not a fixed point: %q then %q", s, h, back.Traceparent())
		}
	})
}

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := New(Options{Service: "svc"})
	root := tr.StartRoot("root")
	root.SetAttr("kind", "test")
	root.SetAttr("n", 42)
	root.SetAttr("ratio", 0.5)
	root.SetAttr("ok", true)
	root.SetAttr("wait", 250*time.Millisecond)
	child := root.StartChild("child")
	child.AddEvent("woke")
	child.End()
	root.End()
	root.End() // second End is a no-op
	root.SetAttr("late", "ignored")

	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(spans))
	}
	c, r := spans[0], spans[1] // collection order: child ended first
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("unexpected span order: %q, %q", c.Name, r.Name)
	}
	if c.TraceID != r.TraceID {
		t.Fatalf("child trace %s != root trace %s", c.TraceID, r.TraceID)
	}
	if c.Parent != r.SpanID {
		t.Fatalf("child parent %s != root span %s", c.Parent, r.SpanID)
	}
	if r.Parent != "" || c.Root() {
		t.Fatalf("root/child confusion: root parent %q, child root=%v", r.Parent, c.Root())
	}
	if r.Service != "svc" || c.Service != "svc" {
		t.Fatalf("service not stamped: %q/%q", r.Service, c.Service)
	}
	if got := r.Attrs["n"]; got != int64(42) {
		t.Fatalf("int attr = %#v, want int64(42)", got)
	}
	if got := r.Attrs["wait"]; got != 0.25 {
		t.Fatalf("duration attr = %#v, want 0.25", got)
	}
	if _, ok := r.Attrs["late"]; ok {
		t.Fatal("attribute set after End was recorded")
	}
	if len(c.Events) != 1 || c.Events[0].Name != "woke" {
		t.Fatalf("child events = %+v", c.Events)
	}
}

func TestRemoteParentContinuation(t *testing.T) {
	coord := New(Options{Service: "coordinator"})
	worker := New(Options{Service: "worker"})
	parent := coord.StartRoot("sweep")
	header := parent.Context().Traceparent()

	sc, err := ParseTraceparent(header)
	if err != nil {
		t.Fatal(err)
	}
	remote := worker.StartRemote("http POST /v1/jobs", sc)
	remote.End()
	parent.End()

	w := worker.Snapshot()
	if len(w) != 1 {
		t.Fatalf("worker has %d spans, want 1", len(w))
	}
	if w[0].TraceID != parent.TraceID() {
		t.Fatalf("worker span trace %s, want %s", w[0].TraceID, parent.TraceID())
	}
	if w[0].Parent != parent.Context().SpanID.String() {
		t.Fatalf("worker span parent %s, want %s", w[0].Parent, parent.Context().SpanID)
	}
	if !w[0].RemoteParent || !w[0].Root() {
		t.Fatalf("worker span should be a remote-parent root: %+v", w[0])
	}

	// An invalid parent falls back to a fresh root.
	fresh := worker.StartRemote("orphan", SpanContext{})
	if fresh.Context().TraceID == sc.TraceID {
		t.Fatal("invalid parent reused the remote trace ID")
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Options{Capacity: 4})
	for i := 0; i < 10; i++ {
		sp := tr.StartRoot(fmt.Sprintf("s%d", i))
		sp.End()
	}
	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("s%d", 6+i); sp.Name != want {
			t.Fatalf("ring[%d] = %q, want %q (oldest-first order)", i, sp.Name, want)
		}
	}
	st := tr.Stats()
	if st.Ended != 10 || st.Dropped != 6 {
		t.Fatalf("stats = %+v, want Ended 10 Dropped 6", st)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := New(Options{Service: "svc"})
	root := tr.StartRoot("root")
	child := root.StartChild("child")
	child.SetAttr("hash", "abc123")
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("JSONL has %d lines, want 2", lines)
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Snapshot()
	if len(back) != len(want) {
		t.Fatalf("decoded %d spans, want %d", len(back), len(want))
	}
	for i := range back {
		if back[i].SpanID != want[i].SpanID || back[i].Name != want[i].Name ||
			back[i].DurationNS != want[i].DurationNS {
			t.Fatalf("span %d changed in flight:\n got %+v\nwant %+v", i, back[i], want[i])
		}
		if !back[i].Start.Equal(want[i].Start) {
			t.Fatalf("span %d start drifted: %v != %v", i, back[i].Start, want[i].Start)
		}
	}

	if _, err := ReadJSONL(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("ReadJSONL accepted corrupt input")
	}
}

func TestTracesFilterAndHandler(t *testing.T) {
	tr := New(Options{Service: "svc"})
	slow := tr.startRootAt("slow", time.Now().Add(-time.Second))
	slowChild := slow.StartChild("inner")
	slowChild.End()
	slow.End()
	fast := tr.StartRoot("fast")
	fast.End()

	page := tr.Traces("", 0, 0)
	if page.Total != 2 || len(page.Traces) != 2 {
		t.Fatalf("page = %+v, want 2 traces", page)
	}
	// Most recent first.
	if page.Traces[0].Spans[0].Name != "fast" {
		t.Fatalf("first trace is %q, want the most recent", page.Traces[0].Spans[0].Name)
	}

	only := tr.Traces(slow.TraceID(), 0, 0)
	if only.Total != 1 || only.Traces[0].TraceID != slow.TraceID() || len(only.Traces[0].Spans) != 2 {
		t.Fatalf("trace filter returned %+v", only)
	}

	long := tr.Traces("", 500*time.Millisecond, 0)
	if long.Total != 1 || long.Traces[0].TraceID != slow.TraceID() {
		t.Fatalf("min-duration filter returned %+v", long)
	}

	// HTTP: JSON shape, trace filter, jsonl format, bad params.
	h := tr.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?trace="+slow.TraceID(), nil))
	if rec.Code != 200 {
		t.Fatalf("handler: HTTP %d: %s", rec.Code, rec.Body)
	}
	var got TracePage
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 1 || len(got.Traces[0].Spans) != 2 {
		t.Fatalf("handler returned %+v", got)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?format=jsonl&limit=1", nil))
	if rec.Code != 200 {
		t.Fatalf("jsonl: HTTP %d", rec.Code)
	}
	recs, err := ReadJSONL(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "fast" {
		t.Fatalf("jsonl limit=1 returned %+v", recs)
	}

	for _, bad := range []string{"?min_ms=-1", "?limit=x", "?format=xml"} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces"+bad, nil))
		if rec.Code != 400 {
			t.Errorf("%s: HTTP %d, want 400", bad, rec.Code)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer claims enabled")
	}
	sp := tr.StartRoot("x")
	if sp != nil {
		t.Fatal("nil tracer started a span")
	}
	sp.SetAttr("k", "v")
	sp.AddEvent("e")
	child := sp.StartChild("c")
	if child != nil {
		t.Fatal("nil span started a child")
	}
	sp.End()
	if sp.TraceID() != "" || sp.Context().Valid() {
		t.Fatal("nil span has an identity")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}

	ctx := ContextWith(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span stored in context")
	}
	real := New(Options{}).StartRoot("r")
	ctx = ContextWith(ctx, real)
	if FromContext(ctx) != real {
		t.Fatal("span not recovered from context")
	}

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 404 {
		t.Fatalf("nil handler: HTTP %d, want 404", rec.Code)
	}
}

// Concurrent span creation, mutation, End and scraping must be race-clean
// (run under -race in CI).
func TestConcurrentSpans(t *testing.T) {
	tr := New(Options{Capacity: 64})
	root := tr.StartRoot("root")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := root.StartChild(fmt.Sprintf("g%d", g))
				sp.SetAttr("i", i)
				sp.AddEvent("tick")
				sp.End()
			}
		}(g)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent scraper
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Snapshot()
				tr.Traces("", 0, 10)
			}
		}
	}()
	for g := 0; g < 4; g++ { // concurrent shared-span mutators
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root.SetAttr("k", i)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
	root.End()
	if st := tr.Stats(); st.Ended != 801 {
		t.Fatalf("ended %d spans, want 801", st.Ended)
	}
}
