package service

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// doGet issues one GET with optional headers and returns the response
// (body drained and closed) for header inspection.
func doGet(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp
}

// The middleware must continue a remote parent: an incoming valid
// traceparent keeps its trace ID (which also becomes the request ID) and
// the server's span records the remote span as its parent — the stitch a
// fleet-wide trace depends on.
func TestMiddlewareContinuesRemoteParent(t *testing.T) {
	tr := trace.New(trace.Options{Service: "test"})
	_, ts := newTestServer(t, Options{Tracer: tr})

	const (
		remoteTrace = "0af7651916cd43dd8448eb211c80319c"
		remoteSpan  = "b7ad6b7169203331"
	)
	resp := doGet(t, ts.URL+"/healthz", map[string]string{
		"traceparent":  "00-" + remoteTrace + "-" + remoteSpan + "-01",
		"X-Request-Id": "should-be-ignored-when-tracing",
	})
	if id := resp.Header.Get("X-Request-Id"); id != remoteTrace {
		t.Fatalf("request ID = %q, want continued trace ID %q", id, remoteTrace)
	}
	found := false
	for _, r := range tr.Snapshot() {
		if r.TraceID == remoteTrace && r.Parent == remoteSpan && r.RemoteParent &&
			strings.HasPrefix(r.Name, "http ") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no remote-parent http span collected; snapshot: %+v", tr.Snapshot())
	}
}

// A malformed traceparent must not be continued: the request gets a fresh
// root trace.
func TestMiddlewareRootsOnBadTraceparent(t *testing.T) {
	tr := trace.New(trace.Options{Service: "test"})
	_, ts := newTestServer(t, Options{Tracer: tr})

	resp := doGet(t, ts.URL+"/healthz", map[string]string{
		"traceparent": "00-ffffffffffffffffffffffffffffffff-0000000000000000-01", // all-zero span ID
	})
	id := resp.Header.Get("X-Request-Id")
	if len(id) != 32 || id == "ffffffffffffffffffffffffffffffff" {
		t.Fatalf("bad traceparent should mint a fresh root trace ID, got %q", id)
	}
	for _, r := range tr.Snapshot() {
		if r.RemoteParent {
			t.Fatalf("span continued a malformed parent: %+v", r)
		}
	}
}

// With tracing off, a sane forwarded X-Request-Id is honored (multi-hop
// log correlation) and a hostile one is replaced.
func TestRequestIDForwardingWithoutTracing(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp := doGet(t, ts.URL+"/healthz", map[string]string{"X-Request-Id": "sweep-0123abcd"})
	if id := resp.Header.Get("X-Request-Id"); id != "sweep-0123abcd" {
		t.Fatalf("forwarded request ID not honored: got %q", id)
	}
	resp = doGet(t, ts.URL+"/healthz", map[string]string{"X-Request-Id": "evil id{};$(rm)"})
	if id := resp.Header.Get("X-Request-Id"); !strings.HasPrefix(id, "r") || len(id) != 7 {
		t.Fatalf("hostile request ID should be replaced with a minted one, got %q", id)
	}
}

// One executed submission must leave the full span pipeline behind:
// root request span (outcome=queued), queue.wait, job.run with terminal
// status, store.put, and at least one als.generation span — and the
// queue-wait histogram must have observed it.
func TestSubmitTracePipeline(t *testing.T) {
	st, err := store.Open(filepath.Join(t.TempDir(), "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Service: "test"})
	_, ts := newTestServer(t, Options{Tracer: tr, Store: st})

	v, _, code := postV2(t, ts, quickReq(11))
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	if got := waitDone(t, ts, v.ID); got.Status != StatusDone {
		t.Fatalf("job finished %s", got.Status)
	}

	// Find the submit's trace: the root span whose outcome is "queued".
	var traceID string
	for _, r := range tr.Snapshot() {
		if r.Root() && r.Attrs["outcome"] == "queued" {
			traceID = r.TraceID
		}
	}
	if traceID == "" {
		t.Fatalf("no queued root span; snapshot: %+v", tr.Snapshot())
	}
	byName := map[string][]trace.SpanRecord{}
	for _, r := range tr.Snapshot() {
		if r.TraceID == traceID {
			byName[r.Name] = append(byName[r.Name], r)
		}
	}
	if q := byName["queue.wait"]; len(q) != 1 || q[0].Attrs["outcome"] != "started" {
		t.Errorf("queue.wait span wrong: %+v", q)
	}
	if jr := byName["job.run"]; len(jr) != 1 || jr[0].Attrs["status"] != string(StatusDone) {
		t.Errorf("job.run span wrong: %+v", jr)
	}
	if len(byName["store.put"]) != 1 {
		t.Errorf("store.put span missing: %v", byName)
	}
	if len(byName["als.generation"]) == 0 {
		t.Errorf("no als.generation spans in trace; names: %v", names(byName))
	}
	if len(byName["als.post_optimize"]) != 1 {
		t.Errorf("als.post_optimize span missing; names: %v", names(byName))
	}

	// The queue-wait histogram observed exactly this one executed job.
	body := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(body, "als_queue_wait_seconds_bucket{le=\"+Inf\"} 1") {
		t.Errorf("queue-wait histogram did not observe the job:\n%s", grepLines(body, "als_queue_wait"))
	}

	// The trace must be served back by /debug/traces, filtered by ID.
	page := getBody(t, ts.URL+"/debug/traces?trace="+traceID)
	if !strings.Contains(page, traceID) || !strings.Contains(page, "job.run") {
		t.Errorf("/debug/traces?trace= did not return the trace:\n%.400s", page)
	}
}

func names(m map[string][]trace.SpanRecord) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func grepLines(s, sub string) string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.Contains(l, sub) {
			out = append(out, l)
		}
	}
	return strings.Join(out, "\n")
}
