package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	als "repro"
	"repro/internal/exp"
	"repro/internal/store"
	"repro/internal/verilog"
)

// The crash in these tests is simulated by construction, not by killing
// the process: a SIGKILLed daemon leaves exactly (a) the WAL and store
// files as they were at the kill and (b) nothing else — no drain, no
// terminal records, no flushes beyond what each append already synced.
// Writing those files directly and opening a fresh Server over them is
// therefore the same state a real kill produces; the end-to-end
// SIGKILL-of-a-live-alsd variant runs in scripts/distributed_smoke.sh.

// walServer builds a Server over a store and WAL rooted in dir.
func walServer(t *testing.T, dir string, opts Options) (*Server, *store.Store, *WAL) {
	t.Helper()
	st, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := OpenWAL(filepath.Join(dir, "queue.wal"))
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	opts.WAL = wal
	s := New(opts)
	t.Cleanup(func() {
		s.Close()
		wal.Close()
		st.Close()
	})
	return s, st, wal
}

// waitServerDone polls the job table directly until id is terminal.
func waitServerDone(t *testing.T, s *Server, id string) JobViewV2 {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := s.JobV2(id); ok && v.Status.terminal() {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return JobViewV2{}
}

// TestWALReplayCompletesLostJobs is the core crash-recovery property:
// submissions accepted (202) by a daemon that dies before running them
// are re-enqueued on restart and finish with results byte-identical to an
// uninterrupted run.
func TestWALReplayCompletesLostJobs(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "queue.wal")

	// The WAL a killed daemon leaves: three accepts, no terminal records.
	reqs := []Request{quickReq(11), quickReq(12), quickReq(13)}
	var lines []string
	hashes := make([]string, len(reqs))
	for i, r := range reqs {
		sp, err := validate(r)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = sp.hash
		raw, err := json.Marshal(walRecord{Op: walOpAccept, Hash: sp.hash, Req: &r})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(raw))
	}
	if err := os.WriteFile(walPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, st, _ := walServer(t, dir, Options{Workers: 2})
	var scrape strings.Builder
	if err := s.Metrics().WritePrometheus(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "als_wal_replayed_total 3") {
		t.Fatalf("als_wal_replayed_total after replay:\n%s", scrape.String())
	}
	views := s.JobsPage(0, 0).Jobs
	if len(views) != 3 {
		t.Fatalf("job table has %d jobs after replay, want 3", len(views))
	}
	for _, v := range views {
		got := waitServerDone(t, s, v.ID)
		if got.Status != StatusDone {
			t.Fatalf("replayed job %s ended %q (error %q)", v.ID, got.Status, got.Error)
		}
	}

	// Byte-identical to an uninterrupted run: each replayed result's
	// persisted bytes must equal what a fresh daemon (same seed, no crash)
	// persists.
	refDir := t.TempDir()
	ref, refStore, _ := walServer(t, refDir, Options{Workers: 2})
	for _, r := range reqs {
		v, err := ref.Submit(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		waitServerDone(t, ref, v.ID)
	}
	for i, h := range hashes {
		var got, want exp.JobResult
		if ok, err := st.Decode(h, &got); !ok || err != nil {
			t.Fatalf("replayed result %d missing: (%v, %v)", i, ok, err)
		}
		if ok, err := refStore.Decode(h, &want); !ok || err != nil {
			t.Fatalf("reference result %d missing: (%v, %v)", i, ok, err)
		}
		got.RuntimeNS, want.RuntimeNS = 0, 0 // wall clock, the one impure field
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replayed result %d = %+v, reference = %+v", i, got, want)
		}
	}
}

// TestWALStoreHitReplayNoRecompute: a job whose result the killed daemon
// already persisted (it crashed after store.Put, before the terminal
// record) replays as a store hit — served bit-identically with no second
// execution.
func TestWALStoreHitReplayNoRecompute(t *testing.T) {
	dir := t.TempDir()

	// Run the job once to obtain its real persisted result.
	s1, st1, wal1 := walServer(t, dir, Options{Workers: 1})
	v, err := s1.Submit(context.Background(), quickReq(21))
	if err != nil {
		t.Fatal(err)
	}
	done := waitServerDone(t, s1, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("seed job ended %q", done.Status)
	}
	s1.Close()
	// A killed daemon's descriptors close, which releases its WAL.
	wal1.Close()

	// Reconstruct the crash window: result persisted, accept unresolved.
	req := quickReq(21)
	raw, err := json.Marshal(walRecord{Op: walOpAccept, Hash: v.Hash, Req: &req})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "queue.wal"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	st1.Close()

	s2, _, _ := walServer(t, dir, Options{Workers: 1})
	views := s2.JobsPage(0, 0).Jobs
	if len(views) != 1 {
		t.Fatalf("job table has %d jobs, want 1", len(views))
	}
	got := views[0]
	if got.Status != StatusDone || !got.Cached {
		t.Fatalf("replayed persisted job = (%q, cached=%v), want done from store", got.Status, got.Cached)
	}
	if got.Result == nil || got.Result.RatioCPD != done.Result.RatioCPD || got.Result.Err != done.Result.Err {
		t.Fatalf("store-replayed result %+v differs from original %+v", got.Result, done.Result)
	}
	if n := s2.Stats().Executed; n != 0 {
		t.Fatalf("replay executed %d jobs, want 0 (store hit)", n)
	}
}

// TestWALTerminalNotReplayed: resolved accepts (and a corrupt torn tail)
// are not replayed.
func TestWALTerminalNotReplayed(t *testing.T) {
	dir := t.TempDir()
	reqDone, reqLost := quickReq(31), quickReq(32)
	spDone, err := validate(reqDone)
	if err != nil {
		t.Fatal(err)
	}
	spLost, err := validate(reqLost)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.Encode(walRecord{Op: walOpAccept, Hash: spDone.hash, Req: &reqDone}) //nolint:errcheck
	enc.Encode(walRecord{Op: walOpAccept, Hash: spLost.hash, Req: &reqLost}) //nolint:errcheck
	enc.Encode(walRecord{Op: string(StatusDone), Hash: spDone.hash})         //nolint:errcheck
	b.WriteString(`{"op":"accept","hash":"torn-tail-no-closing`)             // SIGKILL mid-append
	if err := os.WriteFile(filepath.Join(dir, "queue.wal"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	wal, err := OpenWAL(filepath.Join(dir, "queue.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	pending := wal.Pending()
	if len(pending) != 1 || pending[0].Hash != spLost.hash {
		t.Fatalf("Pending() = %+v, want exactly the unresolved accept %s", pending, spLost.hash)
	}
	if wal.Corrupt() != 1 {
		t.Fatalf("Corrupt() = %d, want 1 (the torn tail)", wal.Corrupt())
	}
	// The healed file must accept appends on a fresh line: reopen and
	// check the new record parses.
	if err := wal.Resolve(string(StatusCancelled), pending[0].Hash, ""); err != nil {
		t.Fatal(err)
	}
	wal.Close()
	wal2, err := OpenWAL(filepath.Join(dir, "queue.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := wal2.Pending(); len(got) != 0 {
		t.Fatalf("Pending() after resolve = %+v, want none", got)
	}
}

// TestWALCompaction: after a restart replays and the jobs finish, the
// next open finds nothing pending and a log proportional to the live set
// plus the bounded job-table snapshot — not to submission history.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, wal := walServer(t, dir, Options{Workers: 1})
	for seed := int64(41); seed <= 43; seed++ {
		v, err := s.Submit(context.Background(), quickReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitServerDone(t, s, v.ID)
	}
	s.Close()
	wal.Close()

	wal2, err := OpenWAL(wal.Path())
	if err != nil {
		t.Fatal(err)
	}
	if got := wal2.Pending(); len(got) != 0 {
		t.Fatalf("Pending() after clean run = %+v, want none", got)
	}
	wal2.Close()

	// A second daemon generation over the same WAL compacts it: the file
	// must not keep growing with resolved history.
	st2, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	wal3, err := OpenWAL(wal.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer wal3.Close()
	s2 := New(Options{Store: st2, WAL: wal3})
	s2.Close()
	raw, err := os.ReadFile(wal.Path())
	if err != nil {
		t.Fatal(err)
	}
	// No accepts survive a clean run; what remains is exactly the durable
	// job-table snapshot (one job record per finished id), so the file is
	// bounded by maxTombstones no matter how much history ran through.
	lines := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("compacted WAL has %d records, want 3 job-snapshot rows:\n%s", len(lines), raw)
	}
	for _, ln := range lines {
		var r walRecord
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("compacted record %q: %v", ln, err)
		}
		if r.Op != walOpJob || r.ID == "" || r.Status != string(StatusDone) {
			t.Fatalf("compacted record = %+v, want a done job-snapshot row", r)
		}
	}
}

// TestWALVerilogReplay: an uploaded-netlist submission survives the crash
// too — the WAL record carries the canonical re-rendered source, and the
// replayed job lands on the identical content hash.
func TestWALVerilogReplay(t *testing.T) {
	c := als.Benchmark("Adder")
	src := verilog.Write(c)
	req := Request{Verilog: src, Metric: "er", Budget: 0.05, Seed: 3}
	sp, err := validate(req)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	canon := sp.request()
	raw, err := json.Marshal(walRecord{Op: walOpAccept, Hash: sp.hash, Req: &canon})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "queue.wal"), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, _ := walServer(t, dir, Options{Workers: 1})
	views := s.JobsPage(0, 0).Jobs
	if len(views) != 1 {
		t.Fatalf("job table has %d jobs, want 1", len(views))
	}
	if views[0].Hash != sp.hash {
		t.Fatalf("replayed verilog job hash = %s, want %s", views[0].Hash, sp.hash)
	}
	got := waitServerDone(t, s, views[0].ID)
	if got.Status != StatusDone {
		t.Fatalf("replayed verilog job ended %q (error %q)", got.Status, got.Error)
	}
}

// TestVerilogReplayKeepsHash: the source an accepted upload's WAL record
// carries re-validates to the hash the 202 promised, also for uploads
// whose first rendering is not yet canonical — a module name that
// sanitizes to nothing, a gate that reaches no output, and a port whose
// sanitized name keeps digits that a second sanitization drops. An upload
// already in canonical form is hashed as its own bytes.
func TestVerilogReplayKeepsHash(t *testing.T) {
	_, canonical, err := verilog.Canonical(verilog.Write(als.Benchmark("Adder16")))
	if err != nil {
		t.Fatal(err)
	}
	uploads := []struct{ name, src string }{
		{"empty module name", "module 6 (a, y);\n  input a;\n  output y;\n  assign y = a;\nendmodule\n"},
		{"dangling gate", "module m (a, b, y);\n  input a;\n  input b;\n  output y;\n  wire d;\n  wire n;\n" +
			"  NAND2X1 g1 (.A(a), .B(b), .Y(d));\n  AND2X1 g2 (.A(a), .B(b), .Y(n));\n  assign y = n;\nendmodule\n"},
		{"leading digits", "module m (a, y);\n  input $12a;\n  output y;\n  assign y = $12a;\nendmodule\n"},
		{"canonical", canonical},
	}
	for _, u := range uploads {
		t.Run(u.name, func(t *testing.T) {
			sp, err := validate(Request{Verilog: u.src, Metric: "er", Budget: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := validate(sp.request())
			if err != nil {
				t.Fatalf("the persisted request no longer validates: %v", err)
			}
			if replayed.hash != sp.hash {
				t.Fatalf("replayed hash %s, accepted hash %s", replayed.hash, sp.hash)
			}
			if u.src == canonical {
				sum := sha256.Sum256([]byte(canonical))
				if want := "verilog:" + hex.EncodeToString(sum[:]); sp.job.Circuit != want {
					t.Fatalf("canonical upload keyed %s, want %s", sp.job.Circuit, want)
				}
			}
		})
	}
}

// TestWALReacceptPendingOnce: a hash accepted, resolved and accepted again
// is owed once, so replay submits it once.
func TestWALReacceptPendingOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	req := quickReq(41)
	for _, err := range []error{
		w.Accept("h1", req),
		w.Resolve(string(StatusDone), "h1", "f000001"),
		w.Accept("h1", req),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	w, err = OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.Pending(); len(got) != 1 || got[0].Hash != "h1" {
		t.Fatalf("Pending() = %+v, want h1 once", got)
	}
}

// TestWALRecordShapeFrozen pins the on-disk record schema documented in
// docs/STORAGE.md: op/hash/req field names and the op vocabulary are a
// contract with every future daemon that replays today's files.
func TestWALRecordShapeFrozen(t *testing.T) {
	req := quickReq(5)
	raw, err := json.Marshal(walRecord{Op: walOpAccept, Hash: "abc", Req: &req})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"op", "hash", "req"} {
		if _, ok := m[k]; !ok {
			t.Errorf("accept record lacks %q field: %s", k, raw)
		}
	}
	if len(m) != 3 {
		t.Errorf("accept record has %d fields, want op/hash/req only: %s", len(m), raw)
	}
	terminal, err := json.Marshal(walRecord{Op: string(StatusDone), Hash: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	// Legacy shape (no id) must still render byte-identically: old logs
	// and new daemons interoperate in both directions.
	if want := `{"op":"done","hash":"abc"}`; string(terminal) != want {
		t.Errorf("terminal record = %s, want %s", terminal, want)
	}
	withID, err := json.Marshal(walRecord{Op: string(StatusDone), Hash: "abc", ID: "f000007"})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"op":"done","hash":"abc","id":"f000007"}`; string(withID) != want {
		t.Errorf("id-carrying terminal record = %s, want %s", withID, want)
	}
	snap, err := json.Marshal(walRecord{Op: walOpJob, Hash: "abc", ID: "f000007", Status: string(StatusDone)})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"op":"job","hash":"abc","id":"f000007","status":"done"}`; string(snap) != want {
		t.Errorf("job-snapshot record = %s, want %s", snap, want)
	}
	for _, op := range []string{walOpAccept, walOpJob, string(StatusDone), string(StatusFailed), string(StatusCancelled)} {
		switch op {
		case "accept", "job", "done", "failed", "cancelled":
		default:
			t.Errorf("op vocabulary changed: %q", op)
		}
	}
}

// TestWALSecondOpenRefused: one daemon owns a WAL. Two alsd on one store
// with the default -wal auto would both open <store>.wal: the second
// would replay the first one's live accepts, and its startup compaction
// would rename a new file over the one the first still appends to.
func TestWALSecondOpenRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queue.wal")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	refused := func(when string) {
		t.Helper()
		w2, err := OpenWAL(path)
		if err == nil {
			w2.Close()
			t.Fatalf("%s: a second OpenWAL of a WAL in use succeeded", when)
		}
		if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, "-wal") {
			t.Fatalf("%s: error %q should name %s and -wal", when, msg, path)
		}
	}
	refused("after open")
	if err := w.Accept("abc", quickReq(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Compact([]WALPending{{Hash: "abc", Req: quickReq(1)}}, nil); err != nil {
		t.Fatal(err)
	}
	refused("after compaction")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(path)
	if err != nil {
		t.Fatalf("OpenWAL after the owner closed: %v", err)
	}
	defer w3.Close()
	if p := w3.Pending(); len(p) != 1 || p[0].Hash != "abc" {
		t.Fatalf("Pending() after compaction = %+v, want the one accept", p)
	}
}

// TestWALQueuedCancelResolved: cancelling a queued job resolves its
// accept, so a later restart does not resurrect work the client
// explicitly abandoned.
func TestWALQueuedCancelResolved(t *testing.T) {
	dir := t.TempDir()
	// One worker pinned down by a slow job keeps the second submission
	// queued long enough to cancel it deterministically.
	s, _, wal := walServer(t, dir, Options{Workers: 1, QueueDepth: 4})
	slow := quickReq(51)
	slow.Vectors = 1 << 16
	slow.Iterations = 40
	v1, err := s.Submit(context.Background(), slow)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(context.Background(), quickReq(52))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cancel(v2.ID); !ok {
		t.Fatal("cancel of queued job failed")
	}
	s.Cancel(v1.ID)
	waitServerDone(t, s, v1.ID)
	s.Close()
	wal.Close()

	wal2, err := OpenWAL(wal.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if got := wal2.Pending(); len(got) != 0 {
		t.Fatalf("Pending() after cancels = %+v, want none", got)
	}
}

// TestWALDedupSingleExecution: N accepts of the SAME spec in a crashed
// WAL replay as one execution — the open scan collapses them to one
// pending entry per hash, so recovery cannot multiply work for deduped
// hashes.
func TestWALDedupSingleExecution(t *testing.T) {
	dir := t.TempDir()
	req := quickReq(61)
	sp, err := validate(req)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for i := 0; i < 4; i++ {
		enc.Encode(walRecord{Op: walOpAccept, Hash: sp.hash, Req: &req}) //nolint:errcheck
	}
	if err := os.WriteFile(filepath.Join(dir, "queue.wal"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, _ := walServer(t, dir, Options{Workers: 2})
	views := s.JobsPage(0, 0).Jobs
	if len(views) != 1 {
		t.Fatalf("job table has %d jobs after deduped replay, want 1", len(views))
	}
	got := waitServerDone(t, s, views[0].ID)
	if got.Status != StatusDone {
		t.Fatalf("deduped replay ended %q", got.Status)
	}
	if n := s.Stats().Executed; n != 1 {
		t.Fatalf("deduped replay executed %d times, want 1", n)
	}
}

// TestWALJobTableSurvivesRestart is the durable-job-table property: a
// job id handed to a client before a crash keeps resolving on the
// restarted daemon's /v2 routes — terminal status intact, the done result
// re-read from the store — and fresh ids never collide with remembered
// ones.
func TestWALJobTableSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, _, wal1 := walServer(t, dir, Options{Workers: 1})
	v, err := s1.Submit(context.Background(), quickReq(71))
	if err != nil {
		t.Fatal(err)
	}
	done := waitServerDone(t, s1, v.ID)
	if done.Status != StatusDone {
		t.Fatalf("seed job ended %q", done.Status)
	}
	long := quickReq(73)
	long.Iterations = 5000
	cv, err := s1.Submit(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	s1.Cancel(cv.ID)
	if got := waitServerDone(t, s1, cv.ID); got.Status != StatusCancelled {
		t.Fatalf("cancelled job ended %q", got.Status)
	}
	s1.Close()
	wal1.Close()

	st2, err := store.Open(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	wal2, err := OpenWAL(wal1.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	s2 := New(Options{Store: st2, WAL: wal2})
	defer s2.Close()
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()

	for _, path := range []string{"/v2/jobs/" + v.ID, "/v2/jobs/" + v.ID + "/result"} {
		var got JobViewV2
		if _, code := getV2(t, ts, path, &got); code != http.StatusOK {
			t.Fatalf("GET %s on the restarted daemon = %d, want 200", path, code)
		}
		if got.Status != StatusDone || got.Hash != v.Hash || !got.Cached {
			t.Fatalf("GET %s = %+v, want done/%s from store", path, got, v.Hash)
		}
		if got.Result == nil || got.Result.RatioCPD != done.Result.RatioCPD || got.Result.Err != done.Result.Err {
			t.Fatalf("GET %s result %+v differs from original %+v", path, got.Result, done.Result)
		}
	}
	if events := readSSE(t, ts.URL+"/v2/jobs/"+v.ID+"/events"); len(events) != 1 || events[0].name != string(StatusDone) {
		t.Fatalf("events of a remembered job = %+v, want exactly one done event", events)
	}
	// A remembered cancelled job's result is gone for good.
	if e, code := getV2(t, ts, "/v2/jobs/"+cv.ID+"/result", nil); code != http.StatusGone || e.Error.Code != CodeJobCancelled {
		t.Fatalf("result of a remembered cancelled job = %d %q, want 410 %s", code, e.Error.Code, CodeJobCancelled)
	}
	// Cancel of a remembered terminal id reports it untouched, like any
	// other terminal job.
	resp, err := http.Post(ts.URL+"/v2/jobs/"+v.ID+"/cancel", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled JobViewV2
	err = json.NewDecoder(resp.Body).Decode(&cancelled)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || cancelled.Status != StatusDone {
		t.Fatalf("cancel of %s on the restarted daemon = %d %+v (%v)", v.ID, resp.StatusCode, cancelled, err)
	}
	// The id sequence restarts past every remembered id: a new submission
	// must not reuse the promised id.
	nv, err := s2.Submit(context.Background(), quickReq(72))
	if err != nil {
		t.Fatal(err)
	}
	if nv.ID == v.ID || nv.ID == cv.ID {
		t.Fatalf("fresh job reused remembered id %s", nv.ID)
	}
	if idSeq(nv.ID) <= idSeq(cv.ID) {
		t.Fatalf("fresh id %s does not follow remembered id %s", nv.ID, cv.ID)
	}
	waitServerDone(t, s2, nv.ID)
}

// TestEvictedJobIDStillResolves: terminal-job eviction (MaxJobs) leaves a
// tombstone behind, so a client polling an old id on /v2 gets its final
// status and store-backed result instead of a 404.
func TestEvictedJobIDStillResolves(t *testing.T) {
	dir := t.TempDir()
	s, _, _ := walServer(t, dir, Options{Workers: 1, MaxJobs: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var views []JobViewV2
	for seed := int64(81); seed <= 83; seed++ {
		v, err := s.Submit(context.Background(), quickReq(seed))
		if err != nil {
			t.Fatal(err)
		}
		done := waitServerDone(t, s, v.ID)
		if done.Status != StatusDone {
			t.Fatalf("job %s ended %q", v.ID, done.Status)
		}
		views = append(views, done)
	}
	// MaxJobs 2 forces the oldest terminal job out when the third arrives.
	if n := s.JobsPage(0, 0).Total; n >= 3 {
		t.Fatalf("job table holds %d jobs, eviction never happened", n)
	}
	first := views[0]
	for _, path := range []string{"/v2/jobs/" + first.ID, "/v2/jobs/" + first.ID + "/result"} {
		var got JobViewV2
		if _, code := getV2(t, ts, path, &got); code != http.StatusOK {
			t.Fatalf("GET %s of an evicted job = %d, want 200", path, code)
		}
		if got.Status != StatusDone || got.Hash != first.Hash || got.Result == nil {
			t.Fatalf("GET %s = %+v, want done/%s with store-backed result", path, got, first.Hash)
		}
		if got.Result.RatioCPD != first.Result.RatioCPD {
			t.Fatalf("GET %s result %+v differs from original %+v", path, got.Result, first.Result)
		}
	}
	if events := readSSE(t, ts.URL+"/v2/jobs/"+first.ID+"/events"); len(events) != 1 || events[0].name != string(StatusDone) {
		t.Fatalf("events of an evicted job = %+v, want exactly one done event", events)
	}
}
