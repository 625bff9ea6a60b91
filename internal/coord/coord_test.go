package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	als "repro"
	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
)

// testJobs is a cheap real job matrix: TABLE II on c880 plus TABLE III on
// Adder16, five methods each — 10 cells, milliseconds apiece.
func testJobs(seed int64) []exp.Job {
	opts := exp.Opts{
		Scale: als.ScaleQuick, Seed: seed,
		Population: 6, Iterations: 3, Vectors: 512,
		Circuits: []string{"c880", "Adder16"},
	}
	return append(exp.Table2Jobs(opts), exp.Table3Jobs(opts)...)
}

// cheapJob is one fast unique cell (canonical spelling) for
// intake-focused tests.
func cheapJob(seed int64) exp.Job {
	return exp.Job{
		Circuit: "Adder16", Method: "Ours", Metric: "NMED", Budget: 0.0244,
		Scale: "quick", Seed: seed, Population: 6, Iterations: 3, Vectors: 512,
	}
}

func mustHash(t *testing.T, j exp.Job) string {
	t.Helper()
	h, err := j.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// wantResults computes the reference ResultSet on the local scheduler.
func wantResults(t *testing.T, jobs []exp.Job) exp.ResultSet {
	t.Helper()
	rs, _, err := exp.RunJobs(jobs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func assertSameMetrics(t *testing.T, got, want exp.ResultSet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result set has %d cells, want %d", len(got), len(want))
	}
	for h, w := range want {
		g, ok := got[h]
		if !ok {
			t.Fatalf("missing cell %.12s…", h)
		}
		if g.RatioCPD != w.RatioCPD || g.Err != w.Err || g.Evaluations != w.Evaluations {
			t.Fatalf("cell %.12s… = (%v, %v, %d), want (%v, %v, %d)",
				h, g.RatioCPD, g.Err, g.Evaluations, w.RatioCPD, w.Err, w.Evaluations)
		}
	}
}

// newWorker boots an in-process alsd equivalent.
func newWorker(t *testing.T, opts service.Options) *httptest.Server {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	s := service.New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

// fastOpts keeps lane and webhook pacing test-friendly. The heartbeat
// interval is long so registered workers never expire unless a test
// shortens it on purpose.
func fastOpts(o Options) Options {
	o.PollInterval = 2 * time.Millisecond
	o.Backoff = 2 * time.Millisecond
	o.MaxBackoff = 10 * time.Millisecond
	o.RetryBudget = 2
	if o.HeartbeatInterval == 0 {
		o.HeartbeatInterval = time.Minute
	}
	if o.WebhookBackoff == 0 {
		o.WebhookBackoff = 2 * time.Millisecond
	}
	if o.WebhookMaxBackoff == 0 {
		o.WebhookMaxBackoff = 10 * time.Millisecond
	}
	return o
}

// newCoord builds a coordinator over a fresh store (unless opts.Store is
// set) and serves its handler.
func newCoord(t *testing.T, opts Options) (*Coordinator, *httptest.Server) {
	t.Helper()
	if opts.Store == nil {
		st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		opts.Store = st
	}
	c, err := New(fastOpts(opts))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

func TestFairQueueWeightedAcrossTenants(t *testing.T) {
	q := newFairQueue(map[string]int{"heavy": 2}, nil)
	for i := 0; i < 4; i++ {
		q.push(&cellState{hash: fmt.Sprintf("h%d", i), tenant: "heavy"})
		q.push(&cellState{hash: fmt.Sprintf("l%d", i), tenant: "light"})
	}
	var order []string
	for {
		c, ok := q.tryPop()
		if !ok {
			break
		}
		order = append(order, c.tenant)
	}
	if len(order) != 8 {
		t.Fatalf("popped %d cells, want 8", len(order))
	}
	// Weight 2 vs 1: across the first two full revolutions heavy is served
	// twice per light turn (where the revolution starts is unspecified).
	var heavyFirst6 int
	for _, tn := range order[:6] {
		if tn == "heavy" {
			heavyFirst6++
		}
	}
	if heavyFirst6 != 4 {
		t.Fatalf("first 6 pops served heavy %d times, want 4 (2:1 weighting): %v", heavyFirst6, order)
	}
	// Light must not starve: it appears within every three consecutive pops.
	for i := 0; i+3 <= len(order); i++ {
		if order[i] != "light" && order[i+1] != "light" && order[i+2] != "light" {
			t.Fatalf("tenant light starved in window %d: %v", i, order)
		}
	}
}

func TestFairQueuePriorityWithinTenant(t *testing.T) {
	q := newFairQueue(nil, nil)
	q.push(&cellState{hash: "a", priority: 0})
	q.push(&cellState{hash: "b", priority: 5})
	q.push(&cellState{hash: "c", priority: 5})
	q.push(&cellState{hash: "d", priority: 1})
	var got []string
	for {
		c, ok := q.tryPop()
		if !ok {
			break
		}
		got = append(got, c.hash)
	}
	if want := "b,c,d,a"; strings.Join(got, ",") != want {
		t.Fatalf("priority dequeue order = %v, want %s", got, want)
	}
}

func TestFairQueueBlockingPop(t *testing.T) {
	q := newFairQueue(nil, nil)
	done := make(chan *cellState, 1)
	go func() {
		c, _ := q.pop(context.Background())
		done <- c
	}()
	time.Sleep(10 * time.Millisecond)
	q.push(&cellState{hash: "x"})
	select {
	case c := <-done:
		if c.hash != "x" {
			t.Fatalf("popped %q, want x", c.hash)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked pop never woke")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := q.pop(ctx); ok {
		t.Fatal("cancelled pop must report not-ok")
	}
}

// TestCoordinatorSweepMatchesLocal is the tentpole acceptance check at
// package level: a sweep dispatched through the coordinator (two
// registered in-process workers) must produce exactly the local
// scheduler's deterministic metrics. cmd/experiments -coord is this same
// client (dispatch.Run with the coordinator as its endpoint).
func TestCoordinatorSweepMatchesLocal(t *testing.T) {
	jobs := testJobs(31)
	want := wantResults(t, jobs)

	c, ts := newCoord(t, Options{})
	w1 := newWorker(t, service.Options{})
	w2 := newWorker(t, service.Options{})
	if _, _, err := c.Register(w1.URL); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Register(w2.URL); err != nil {
		t.Fatal(err)
	}

	got, stats, err := dispatch.Run(context.Background(), jobs, dispatch.Options{
		Endpoint:     ts.URL,
		PollInterval: 2 * time.Millisecond,
		Backoff:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if stats.Executed != len(want) {
		t.Fatalf("executed = %d, want %d", stats.Executed, len(want))
	}
	if n := c.met.workers.Value(); n != 2 {
		t.Fatalf("als_cluster_workers = %d, want 2", n)
	}

	// Each worker's lane counts its completions on the coordinator's
	// registry, labelled by the worker URL.
	var exposition bytes.Buffer
	if err := c.met.registry.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, line := range strings.Split(exposition.String(), "\n") {
		for _, w := range []string{w1.URL, w2.URL} {
			if rest, ok := strings.CutPrefix(line, `als_dispatch_cells_completed_total{lane="`+w+`"} `); ok {
				n, err := strconv.Atoi(rest)
				if err != nil {
					t.Fatalf("bad sample %q", line)
				}
				completed += n
			}
		}
	}
	if completed != len(want) {
		t.Fatalf("als_dispatch_cells_completed_total over the workers = %d, want %d", completed, len(want))
	}
}

// stuckWorker implements the worker job API but never finishes anything:
// it accepts batches (computing real hashes so the lane's sanity check
// passes) and answers every poll "running". It is how a test holds cells
// hostage on a worker that then goes silent.
func stuckWorker(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req service.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var resp service.BatchResponse
		for _, j := range req.Jobs {
			h, err := j.Hash()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			resp.Jobs = append(resp.Jobs, service.JobView{Hash: h, Status: service.StatusQueued})
		}
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	})
	mux.HandleFunc("GET /v1/jobs/{hash}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.JobView{ //nolint:errcheck
			Hash: r.PathValue("hash"), Status: service.StatusRunning,
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestHeartbeatExpiryFailsOver: a worker that registers, takes cells and
// then never heartbeats is drained after ExpireAfter intervals; its
// in-flight cells return to the queue and the surviving (heartbeating)
// worker completes the sweep with identical results.
func TestHeartbeatExpiryFailsOver(t *testing.T) {
	jobs := testJobs(32)
	want := wantResults(t, jobs)

	c, ts := newCoord(t, Options{
		HeartbeatInterval: 50 * time.Millisecond,
		ExpireAfter:       2,
	})
	healthy := newWorker(t, service.Options{})
	stuck := stuckWorker(t)

	healthyID, _, err := c.Register(healthy.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Register(stuck.URL); err != nil {
		t.Fatal(err)
	}

	// Keep the healthy worker beating; the stuck one stays silent and must
	// expire mid-sweep.
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go func() {
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopBeat:
				return
			case <-tick.C:
				c.Heartbeat(healthyID, 0, 0, 0)
			}
		}
	}()

	got, _, err := dispatch.Run(context.Background(), jobs, dispatch.Options{
		Endpoint:     ts.URL,
		PollInterval: 2 * time.Millisecond,
		Backoff:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameMetrics(t, got, want)
	if n := c.met.expired.Value(); n < 1 {
		t.Fatalf("als_cluster_workers_expired_total = %d, want >= 1", n)
	}
	if n := c.met.steals.Value(); n < 1 {
		t.Fatalf("als_cluster_steals_total = %d, want >= 1 (failover reassigns cells)", n)
	}
	ws := c.Workers()
	for _, w := range ws {
		if w.URL == stuck.URL {
			t.Fatalf("expired worker still registered: %+v", ws)
		}
	}
}

// TestTenantQuotaCutsBatch: intake beyond the tenant's pending cap is cut
// with the accepted prefix and the queue-full reason — and a WAL replay
// of those same accepts is exempt, so a coordinator restarted with a
// lower cap (or a big batch) never self-rejects its own promises.
func TestTenantQuotaCutsBatchAndReplayIsExempt(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wal, err := OpenWAL(filepath.Join(dir, "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}

	c1, err := New(fastOpts(Options{Store: st, WAL: wal, MaxPendingPerTenant: 2}))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []exp.Job{cheapJob(1), cheapJob(2), cheapJob(3), cheapJob(4)}
	views, reason, err := c1.Submit(jobs, "acme", 0)
	if reason != service.ReasonQueueFull {
		t.Fatalf("reason = %q, want %q (err %v)", reason, service.ReasonQueueFull, err)
	}
	if len(views) != 2 {
		t.Fatalf("accepted prefix has %d views, want 2", len(views))
	}
	c1.Close()
	wal.Close()

	// Crash-restart with a HARSHER cap: the replayed promises must all
	// come back regardless.
	wal2, err := OpenWAL(filepath.Join(dir, "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if n := len(wal2.Pending()); n != 2 {
		t.Fatalf("wal holds %d pending cells, want 2", n)
	}
	c2, err := New(fastOpts(Options{Store: st, WAL: wal2, MaxPendingPerTenant: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if n := c2.QueueLen(); n != 2 {
		t.Fatalf("replayed queue has %d cells, want 2 (quota must not apply to replay)", n)
	}
}

// TestWALReplayResumesSweep: a coordinator killed with queued cells
// re-enqueues them on restart and a newly registered worker finishes the
// sweep — the client polling by hash never notices.
func TestWALReplayResumesSweep(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jobs := []exp.Job{cheapJob(11), cheapJob(12), cheapJob(13)}
	want := wantResults(t, jobs)

	wal, err := OpenWAL(filepath.Join(dir, "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(fastOpts(Options{Store: st, WAL: wal}))
	if err != nil {
		t.Fatal(err)
	}
	if _, reason, err := c1.Submit(jobs, "", 0); err != nil || reason != "" {
		t.Fatalf("submit: reason=%q err=%v", reason, err)
	}
	// Simulated SIGKILL: no Close, no drain — only the file contents count.
	// The killed process's descriptors close, which releases its WAL.
	wal.Close()
	wal2, err := OpenWAL(filepath.Join(dir, "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	c2, err := New(fastOpts(Options{Store: st, WAL: wal2}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c2.Close()
		c1.Close()
	}()
	if n := c2.QueueLen(); n != len(jobs) {
		t.Fatalf("replayed queue has %d cells, want %d", n, len(jobs))
	}

	w := newWorker(t, service.Options{})
	if _, _, err := c2.Register(w.URL); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	got := exp.ResultSet{}
	for len(got) < len(jobs) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d cells finished", len(got), len(jobs))
		}
		for _, j := range jobs {
			h := mustHash(t, j)
			if _, ok := got[h]; ok {
				continue
			}
			if v, ok := c2.JobByHash(h); ok && v.Status == service.StatusDone && v.Result != nil {
				got[h] = *v.Result
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	assertSameMetrics(t, got, want)
}

// hookSink is a controllable webhook receiver.
type hookSink struct {
	secret string
	mu     sync.Mutex
	accept bool
	seen   map[string]int
	badSig int
}

func (s *hookSink) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !VerifySignature([]byte(s.secret), body, r.Header.Get(SignatureHeader)) {
		s.badSig++
		http.Error(w, "bad signature", http.StatusForbidden)
		return
	}
	if !s.accept {
		http.Error(w, "not yet", http.StatusServiceUnavailable)
		return
	}
	var env Envelope
	if err := json.Unmarshal(body, &env); err != nil {
		http.Error(w, "bad envelope", http.StatusBadRequest)
		return
	}
	s.seen[env.Hash]++
	w.WriteHeader(http.StatusOK)
}

func (s *hookSink) counts() (map[string]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.seen))
	for k, v := range s.seen {
		out[k] = v
	}
	return out, s.badSig
}

// TestWebhookExactlyOnce: subscribe before anything runs, sweep through a
// registered worker, and require exactly one signed delivery per hash —
// including for a second subscription created after the results exist
// (the already-done fast path).
func TestWebhookExactlyOnce(t *testing.T) {
	jobs := []exp.Job{cheapJob(21), cheapJob(22)}
	hashes := []string{mustHash(t, jobs[0]), mustHash(t, jobs[1])}

	c, _ := newCoord(t, Options{})
	snk := &hookSink{secret: "s3cret", accept: true, seen: map[string]int{}}
	hs := httptest.NewServer(snk)
	t.Cleanup(hs.Close)

	subID, ready, err := c.Subscribe(hs.URL+"/hook", snk.secret, hashes)
	if err != nil {
		t.Fatal(err)
	}
	if ready != 0 {
		t.Fatalf("fresh subscription reported %d already-done hashes", ready)
	}
	if subID == "" {
		t.Fatal("empty subscription id")
	}

	w := newWorker(t, service.Options{})
	if _, _, err := c.Register(w.URL); err != nil {
		t.Fatal(err)
	}
	if _, reason, err := c.Submit(jobs, "", 0); err != nil || reason != "" {
		t.Fatalf("submit: reason=%q err=%v", reason, err)
	}

	deadline := time.Now().Add(time.Minute)
	for {
		seen, _ := snk.counts()
		if len(seen) == len(hashes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deliveries incomplete: %v", seen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Grace window: any duplicate would arrive promptly after the first.
	time.Sleep(50 * time.Millisecond)
	seen, badSig := snk.counts()
	for _, h := range hashes {
		if seen[h] != 1 {
			t.Fatalf("hash %.12s… delivered %d times, want exactly 1", h, seen[h])
		}
	}
	if badSig != 0 {
		t.Fatalf("%d envelope(s) failed signature verification", badSig)
	}

	// Late subscriber: everything is done, so delivery is immediate.
	snk2 := &hookSink{secret: "other", accept: true, seen: map[string]int{}}
	hs2 := httptest.NewServer(snk2)
	t.Cleanup(hs2.Close)
	_, ready, err = c.Subscribe(hs2.URL+"/hook", snk2.secret, hashes)
	if err != nil {
		t.Fatal(err)
	}
	if ready != len(hashes) {
		t.Fatalf("late subscription reported %d already-done hashes, want %d", ready, len(hashes))
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		seen, _ := snk2.counts()
		if len(seen) == len(hashes) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late-subscriber deliveries incomplete: %v", seen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.met.deliveries.Value(); n != int64(2*len(hashes)) {
		t.Fatalf("als_webhook_deliveries_total = %d, want %d", n, 2*len(hashes))
	}
}

// TestWebhookRedeliveryAfterRestart: a subscriber that was down when its
// envelope's retry budget ran out gets the envelope again after the
// coordinator restarts — the WAL holds the subscription but no delivered
// record, which is exactly the at-least-once contract.
func TestWebhookRedeliveryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := cheapJob(41)
	h := mustHash(t, j)
	// Pre-seed the store so intake completes the cell instantly — the test
	// is about delivery durability, not scheduling.
	want := wantResults(t, []exp.Job{j})
	if err := st.Put(h, want[h]); err != nil {
		t.Fatal(err)
	}

	snk := &hookSink{secret: "k", accept: false, seen: map[string]int{}}
	hs := httptest.NewServer(snk)
	t.Cleanup(hs.Close)

	wal, err := OpenWAL(filepath.Join(dir, "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}
	c1, err := New(fastOpts(Options{Store: st, WAL: wal, WebhookRetryBudget: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Subscribe(hs.URL+"/hook", snk.secret, []string{h}); err != nil {
		t.Fatal(err)
	}
	if _, reason, err := c1.Submit([]exp.Job{j}, "", 0); err != nil || reason != "" {
		t.Fatalf("submit: reason=%q err=%v", reason, err)
	}
	// Wait for the budget to burn out against the refusing sink.
	deadline := time.Now().Add(10 * time.Second)
	for c1.met.retries.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("delivery attempts never exhausted (retries=%d)", c1.met.retries.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c1.Close()
	wal.Close()
	if n, _ := snk.counts(); len(n) != 0 {
		t.Fatalf("refusing sink recorded deliveries: %v", n)
	}

	// Sink comes back; a restarted coordinator must re-deliver.
	snk.mu.Lock()
	snk.accept = true
	snk.mu.Unlock()
	wal2, err := OpenWAL(filepath.Join(dir, "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	c2, err := New(fastOpts(Options{Store: st, WAL: wal2}))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	deadline = time.Now().Add(10 * time.Second)
	for {
		seen, _ := snk.counts()
		if seen[h] == 1 {
			break
		}
		if seen[h] > 1 {
			t.Fatalf("hash delivered %d times after restart", seen[h])
		}
		if time.Now().After(deadline) {
			t.Fatal("restart never re-delivered the unacknowledged envelope")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The sink counts the POST before c2 has appended the WAL Delivered
	// record; closing now could cancel the delivery in between. The
	// deliveries counter moves only after the append.
	for c2.met.deliveries.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("restarted coordinator never recorded the delivery")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A third lifetime must NOT deliver again: the delivery is now in the
	// WAL.
	c2.Close()
	wal2.Close()
	wal3, err := OpenWAL(filepath.Join(dir, "coord.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal3.Close()
	c3, err := New(fastOpts(Options{Store: st, WAL: wal3}))
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	time.Sleep(100 * time.Millisecond)
	if seen, _ := snk.counts(); seen[h] != 1 {
		t.Fatalf("acknowledged envelope re-delivered: %d", seen[h])
	}
}

// TestIntakeDedup: live-cell and store dedup both answer without
// scheduling anything twice.
func TestIntakeDedup(t *testing.T) {
	c, _ := newCoord(t, Options{})
	j := cheapJob(51)
	h := mustHash(t, j)

	v1, _, err := c.Submit([]exp.Job{j}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := c.Submit([]exp.Job{j}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if v1[0].Hash != h || v2[0].Hash != h {
		t.Fatal("hash mismatch")
	}
	if c.QueueLen() != 1 {
		t.Fatalf("duplicate submit queued %d cells, want 1", c.QueueLen())
	}

	// Store dedup: a different coordinator sharing the store answers done
	// immediately.
	want := wantResults(t, []exp.Job{j})
	st2, err := store.Open(filepath.Join(t.TempDir(), "r.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Put(h, want[h]); err != nil {
		t.Fatal(err)
	}
	c2, err := New(fastOpts(Options{Store: st2}))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	views, _, err := c2.Submit([]exp.Job{j}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if views[0].Status != service.StatusDone || !views[0].Cached {
		t.Fatalf("store-seeded submit = %+v, want done+cached", views[0])
	}
	if c2.QueueLen() != 0 {
		t.Fatal("store-answered cell must not be queued")
	}
}

// TestIntakeCanonicalizesAliases: a spec spelled with flow-API aliases
// ("dcgwo"/"nmed") must land on the same cell — and the same content
// hash the workers will report — as its canonical form. Before intake
// canonicalized, an alias-spelled batch was filed under a hash no worker
// ever answered for and polled as "queued" forever.
func TestIntakeCanonicalizesAliases(t *testing.T) {
	c, _ := newCoord(t, Options{})
	canonical := cheapJob(71)
	alias := canonical
	alias.Method = "dcgwo"
	alias.Metric = "nmed"
	wantHash := mustHash(t, canonical)

	aliasRaw, err := alias.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if aliasRaw == wantHash {
		t.Fatal("test is vacuous: alias spelling already hashes canonically")
	}

	views, _, err := c.Submit([]exp.Job{alias}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if views[0].Hash != wantHash {
		t.Fatalf("alias intake filed under %.12s…, want canonical %.12s…", views[0].Hash, wantHash)
	}
	// The canonical spelling dedups against the alias-submitted cell.
	views, _, err = c.Submit([]exp.Job{canonical}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if views[0].Hash != wantHash || c.QueueLen() != 1 {
		t.Fatalf("canonical resubmit: hash %.12s…, queue %d — want dedup against the alias cell",
			views[0].Hash, c.QueueLen())
	}
}

// TestHTTPSurface drives the cluster and /v2 routes end to end over HTTP:
// registration contract (including the 404-means-re-register heartbeat
// answer), batch intake, and per-hash polling.
func TestHTTPSurface(t *testing.T) {
	_, ts := newCoord(t, Options{})
	post := func(path string, body any) (*http.Response, []byte) {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, payload
	}

	// Registration contract.
	resp, _ := post("/cluster/register", map[string]string{"url": "not a url"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad register URL: HTTP %d, want 400", resp.StatusCode)
	}
	w := newWorker(t, service.Options{})
	resp, payload := post("/cluster/register", map[string]string{"url": w.URL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d: %s", resp.StatusCode, payload)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(payload, &reg); err != nil || reg.ID == "" {
		t.Fatalf("register response: %s", payload)
	}
	if _, err := time.ParseDuration(reg.HeartbeatInterval); err != nil {
		t.Fatalf("heartbeat_interval %q unparsable: %v", reg.HeartbeatInterval, err)
	}

	resp, _ = post("/cluster/heartbeat", map[string]any{"id": reg.ID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d", resp.StatusCode)
	}
	resp, _ = post("/cluster/heartbeat", map[string]any{"id": "w9999"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat: HTTP %d, want 404 (the re-register signal)", resp.StatusCode)
	}

	// /v2 batch intake, then poll by hash until done.
	jobs := []exp.Job{cheapJob(61), cheapJob(62)}
	resp, payload = post("/v2/batches", map[string]any{"jobs": jobs, "tenant": "acme"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch: HTTP %d: %s", resp.StatusCode, payload)
	}
	var bv BatchView
	if err := json.Unmarshal(payload, &bv); err != nil || bv.Accepted != 2 {
		t.Fatalf("batch view: %s", payload)
	}
	deadline := time.Now().Add(time.Minute)
	for _, j := range jobs {
		h := mustHash(t, j)
		for {
			r, err := http.Get(ts.URL + "/v1/jobs/" + h)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(r.Body)
			r.Body.Close()
			var v service.JobView
			if err := json.Unmarshal(body, &v); err != nil {
				t.Fatalf("poll: %s", body)
			}
			if v.Status == service.StatusDone {
				break
			}
			if v.Status == service.StatusFailed {
				t.Fatalf("cell failed: %s", v.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("cell %.12s… stuck at %s", h, v.Status)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Workers snapshot and unknown-hash 404.
	r, err := http.Get(ts.URL + "/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	var fleet []WorkerView
	if err := json.Unmarshal(body, &fleet); err != nil || len(fleet) != 1 {
		t.Fatalf("workers: %s", body)
	}
	r, err = http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown hash: HTTP %d, want 404", r.StatusCode)
	}
}

// TestClusterMetricNamesFrozen pins the coordinator's registration order
// and requires the shared contract file to end with exactly these names.
func TestClusterMetricNamesFrozen(t *testing.T) {
	m := newCoordMetrics(nil)
	got := m.registry.MetricNames()
	if len(got) < len(clusterMetricNames) {
		t.Fatalf("registry has %d metrics, want at least %d", len(got), len(clusterMetricNames))
	}
	for i, name := range clusterMetricNames {
		if got[i] != name {
			t.Errorf("metric %d = %q, want %q", i, got[i], name)
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "service", "testdata", "metrics_v1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	names := strings.Fields(string(raw))
	if len(names) < len(clusterMetricNames) {
		t.Fatalf("contract file lists %d names", len(names))
	}
	tail := names[len(names)-len(clusterMetricNames):]
	for i, name := range clusterMetricNames {
		if tail[i] != name {
			t.Errorf("contract tail %d = %q, want %q (append, never reorder)", i, tail[i], name)
		}
	}
}
