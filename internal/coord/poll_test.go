package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
)

// heldCoord serves a worker-less coordinator (cells stay queued until a
// test settles them) through a handler that signals when a held poll
// enters and leaves it.
func heldCoord(t *testing.T) (c *Coordinator, ts *httptest.Server, entered, returned chan struct{}) {
	t.Helper()
	st, err := store.Open(filepath.Join(t.TempDir(), "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	c, err = New(fastOpts(Options{Store: st}))
	if err != nil {
		t.Fatal(err)
	}
	h := c.Handler()
	entered, returned = make(chan struct{}, 8), make(chan struct{}, 8)
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		held := r.URL.Query().Has("wait")
		if held {
			entered <- struct{}{}
		}
		h.ServeHTTP(w, r)
		if held {
			returned <- struct{}{}
		}
	}))
	t.Cleanup(func() {
		ts.Close()
		c.Close()
		st.Close()
	})
	return c, ts, entered, returned
}

// pollWait sends one held poll in the background; its view arrives on
// the returned channel.
func pollWait(t *testing.T, ctx context.Context, base, hash, wait string) chan service.JobView {
	t.Helper()
	out := make(chan service.JobView, 1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+hash+"?wait="+wait, nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		var v service.JobView
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			json.NewDecoder(resp.Body).Decode(&v) //nolint:errcheck
			resp.Body.Close()
		}
		out <- v
	}()
	return out
}

// awaitView waits for a held poll's answer and reports how long after
// since it arrived.
func awaitView(t *testing.T, ch chan service.JobView, since time.Time) (service.JobView, time.Duration) {
	t.Helper()
	select {
	case v := <-ch:
		return v, time.Since(since)
	case <-time.After(5 * time.Second):
		t.Fatal("held poll never answered")
		return service.JobView{}, 0
	}
}

// TestHeldPollAnswersWhenCellEnds: a held poll on a queued cell is
// answered within a few ms of the cell's terminal transition, done or
// failed, not at its wait; a failed cell that is resubmitted gets a fresh
// channel, so a poll on the new run is held again.
func TestHeldPollAnswersWhenCellEnds(t *testing.T) {
	c, ts, entered, _ := heldCoord(t)
	j := cheapJob(81)
	h := mustHash(t, j)
	if _, _, err := c.Submit([]exp.Job{j}, "", 0); err != nil {
		t.Fatal(err)
	}

	ans := pollWait(t, context.Background(), ts.URL, h, "10s")
	<-entered
	time.Sleep(50 * time.Millisecond)
	ended := time.Now()
	c.failCell(h, "boom")
	v, lag := awaitView(t, ans, ended)
	if v.Status != service.StatusFailed || lag > 250*time.Millisecond {
		t.Fatalf("held poll on a failing cell = %q after %v, want failed within a few ms", v.Status, lag)
	}

	if _, _, err := c.Submit([]exp.Job{j}, "", 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	ans = pollWait(t, context.Background(), ts.URL, h, "10s")
	<-entered
	time.Sleep(50 * time.Millisecond)
	ended = time.Now()
	if err := c.completeCell(nil, h, exp.JobResult{RatioCPD: 0.5}); err != nil {
		t.Fatal(err)
	}
	v, lag = awaitView(t, ans, ended)
	if v.Status != service.StatusDone || v.Result == nil || lag > 250*time.Millisecond {
		t.Fatalf("held poll on a resubmitted cell = %q after %v, want done within a few ms", v.Status, lag)
	}
	if held := ended.Sub(start); held < 50*time.Millisecond {
		t.Fatalf("poll on the resubmitted run held only %v: its channel was already closed", held)
	}
}

// TestHeldPollAnswersAtOnce: a terminal cell and an unknown hash are
// answered at once, a malformed wait is a 400.
func TestHeldPollAnswersAtOnce(t *testing.T) {
	c, ts, _, _ := heldCoord(t)
	j := cheapJob(82)
	h := mustHash(t, j)
	if _, _, err := c.Submit([]exp.Job{j}, "", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.completeCell(nil, h, exp.JobResult{RatioCPD: 0.5}); err != nil {
		t.Fatal(err)
	}
	get := func(hash, wait string) (service.JobView, int) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + hash + "?wait=" + wait)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v service.JobView
		json.NewDecoder(resp.Body).Decode(&v) //nolint:errcheck
		return v, resp.StatusCode
	}
	start := time.Now()
	if v, code := get(h, "10s"); code != http.StatusOK || v.Status != service.StatusDone {
		t.Fatalf("held poll on a done cell = %d %q", code, v.Status)
	}
	if _, code := get(strings.Repeat("0", 64), "10s"); code != http.StatusNotFound {
		t.Fatalf("held poll on an unknown hash = %d, want 404", code)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("terminal and unknown hashes took %v to answer", took)
	}
	for _, bad := range []string{"soon", "10", "-1s"} {
		if _, code := get(h, bad); code != http.StatusBadRequest {
			t.Errorf("wait=%s answered %d, want 400", bad, code)
		}
	}
}

// TestHeldPollReleasedByDisconnect: a client that goes away releases the
// handler holding its poll.
func TestHeldPollReleasedByDisconnect(t *testing.T) {
	c, ts, entered, returned := heldCoord(t)
	j := cheapJob(83)
	if _, _, err := c.Submit([]exp.Job{j}, "", 0); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	pollWait(t, ctx, ts.URL, mustHash(t, j), "20s")
	<-entered
	cancel()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("handler still holding the poll of a client that went away")
	}
}

// TestShutdownReleasesHeldPoll: http.Server.Shutdown with a poll held
// returns promptly, the poll answered with the cell's current state.
func TestShutdownReleasesHeldPoll(t *testing.T) {
	c, ts, entered, _ := heldCoord(t)
	j := cheapJob(84)
	if _, _, err := c.Submit([]exp.Job{j}, "", 0); err != nil {
		t.Fatal(err)
	}
	ans := pollWait(t, context.Background(), ts.URL, mustHash(t, j), "20s")
	<-entered
	// The hold registers its server's shutdown hook microseconds after
	// the handler is entered; a Shutdown begun before that would not
	// reach it.
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := ts.Config.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("shutdown took %v with a held poll", took)
	}
	if v, _ := awaitView(t, ans, start); v.Status != service.StatusQueued {
		t.Fatalf("released poll answered %q, want the queued cell", v.Status)
	}
}

// TestLaneFillCountsHeldCells: a coordinator lane's Fill keeps what the
// lane holds within the worker's adaptive window.
func TestLaneFillCountsHeldCells(t *testing.T) {
	c, _, _, _ := heldCoord(t)
	var jobs []exp.Job
	for i := range 10 {
		jobs = append(jobs, cheapJob(int64(90+i)))
	}
	if _, _, err := c.Submit(jobs, "", 0); err != nil {
		t.Fatal(err)
	}
	s := &laneSched{c: c, w: &worker{id: "w-test"}, ctx: context.Background()}
	window := c.window(s.w)
	for _, held := range []int{1, window - 1, window, window + 2} {
		if got, want := len(s.Fill(held)), max(window-held, 0); got != want {
			t.Errorf("Fill(%d) with window %d returned %d cells, want %d", held, window, got, want)
		}
	}
}

// TestFullyDeliveredSubscriptionsRetire: once every hash of a
// subscription has a 2xx, its runner returns and it leaves c.subs, so the
// goroutine count returns to its baseline; a subscription with an
// undelivered hash stays armed. After a reopen, the startup compaction
// keeps only the armed one.
func TestFullyDeliveredSubscriptionsRetire(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	jobs := []exp.Job{cheapJob(101), cheapJob(102), cheapJob(103)}
	var hashes []string
	for h, r := range wantResults(t, jobs) {
		if err := st.Put(h, r); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, h)
	}
	snk := &hookSink{secret: "k", accept: true, seen: map[string]int{}}
	hs := httptest.NewServer(snk)
	t.Cleanup(hs.Close)
	tr := &http.Transport{}
	opts := Options{Store: st, Client: &http.Client{Transport: tr}}

	walPath := filepath.Join(dir, "coord.wal")
	wal, err := OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	opts.WAL = wal
	c, err := New(fastOpts(opts))
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	const n = 5
	for range n {
		if _, _, err := c.Subscribe(hs.URL+"/hook", snk.secret, hashes); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		live := len(c.subs)
		c.mu.Unlock()
		if live == 0 && c.met.deliveries.Value() == int64(n*len(hashes)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d subscription(s) still armed after %d deliveries", live, c.met.deliveries.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	tr.CloseIdleConnections()
	hs.CloseClientConnections()
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after every subscription was delivered, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// An undeliverable hash keeps its subscription armed.
	missing := strings.Repeat("f", 64)
	if _, _, err := c.Subscribe(hs.URL+"/hook", snk.secret, []string{hashes[0], missing}); err != nil {
		t.Fatal(err)
	}
	for c.met.deliveries.Value() < int64(n*len(hashes)+1) {
		if time.Now().After(deadline) {
			t.Fatal("the last subscription's ready hash was never delivered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	live := len(c.subs)
	c.mu.Unlock()
	if live != 1 {
		t.Fatalf("%d subscription(s) armed, want the one with an undelivered hash", live)
	}
	c.Close()
	wal.Close()

	// Reopen twice: the first start re-arms only the undelivered
	// subscription and compacts the WAL down to it.
	for range 2 {
		wal, err := OpenWAL(walPath)
		if err != nil {
			t.Fatal(err)
		}
		opts.WAL = wal
		c, err := New(fastOpts(opts))
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		live := len(c.subs)
		c.mu.Unlock()
		c.Close()
		wal.Close()
		if live != 1 {
			t.Fatalf("restart armed %d subscription(s), want 1", live)
		}
	}
	wal, err = OpenWAL(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	subs := wal.Subs()
	if len(subs) != 1 || len(subs[0].Hashes) != 2 {
		t.Fatalf("compacted WAL holds %d subscription(s) (%+v), want only the undelivered one", len(subs), subs)
	}
}
