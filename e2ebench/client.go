package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/coord"
)

// inflight is one request of a running schedule, as the client and the
// webhook sink see it.
type inflight struct {
	request
	secret    []byte
	scheduled time.Time
	sent      time.Time // when the client actually started it
	batchDur  time.Duration
	subDur    time.Duration
	subID     string
	err       error

	mu       sync.Mutex
	got      map[string]json.RawMessage // hash → result bytes, from verified envelopes
	subs     map[string]bool            // subscription ids seen in envelopes
	last     time.Time                  // arrival of the last envelope
	dup      int
	complete chan struct{}
}

func (r *inflight) latency() time.Duration { return r.last.Sub(r.scheduled) }

// sink is the signed-webhook receiver: it verifies every envelope and
// records it against the request its callback path names.
type sink struct {
	srv  *http.Server
	ln   net.Listener
	url  string
	mu   sync.Mutex
	reqs map[int]*inflight
	bad  []string
}

func startSink() (*sink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{ln: ln, url: "http://" + ln.Addr().String(), reqs: map[int]*inflight{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /hook/{id}", s.handle)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // ends with Close
	return s, nil
}

func (s *sink) close() { s.srv.Close() }

func (s *sink) problem(format string, args ...any) {
	s.mu.Lock()
	s.bad = append(s.bad, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

func (s *sink) handle(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	id, _ := strconv.Atoi(r.PathValue("id"))
	body, err := io.ReadAll(r.Body)
	s.mu.Lock()
	req := s.reqs[id]
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
	if err != nil || req == nil {
		s.problem("envelope for unknown request %d", id)
		return
	}
	if !coord.VerifySignature(req.secret, body, r.Header.Get(coord.SignatureHeader)) {
		s.problem("request %d: envelope signature does not verify", id)
		return
	}
	var env struct {
		Subscription string          `json:"subscription"`
		Hash         string          `json:"hash"`
		Result       json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		s.problem("request %d: bad envelope: %v", id, err)
		return
	}
	req.mu.Lock()
	defer req.mu.Unlock()
	want := false
	for _, h := range req.hashes {
		want = want || h == env.Hash
	}
	switch {
	case !want:
		s.problem("request %d: envelope for a hash it did not ask for", id)
	case req.got[env.Hash] != nil:
		req.dup++
	default:
		req.got[env.Hash] = env.Result
		req.subs[env.Subscription] = true
		req.last = now
		if len(req.got) == len(req.hashes) {
			close(req.complete)
		}
	}
}

// scheduleRun is the outcome of one paced schedule.
type scheduleRun struct {
	reqs        []*inflight
	outstanding int // requests not yet complete when the last one was sent
}

// runSchedule sends reqs open-loop at their scheduled offsets (paced) or
// one after another, each once the previous one completed (warm-up), and
// waits for every request's envelopes. Request ids start at base so that
// successive schedules on one sink never collide.
func runSchedule(t *trio, s *sink, reqs []request, base int, paced bool) *scheduleRun {
	run := &scheduleRun{reqs: make([]*inflight, len(reqs))}
	for i, rq := range reqs {
		run.reqs[i] = &inflight{
			request:  rq,
			secret:   []byte(fmt.Sprintf("secret-%d", base+i)),
			got:      map[string]json.RawMessage{},
			subs:     map[string]bool{},
			complete: make(chan struct{}),
		}
		s.mu.Lock()
		s.reqs[base+i] = run.reqs[i]
		s.mu.Unlock()
	}
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, r := range run.reqs {
		if !paced {
			r.scheduled = time.Now()
			send(t, s, base+i, r)
			continue
		}
		r.scheduled = start.Add(r.at)
		time.Sleep(time.Until(r.scheduled))
		wg.Add(1)
		go func(id int, r *inflight) {
			defer wg.Done()
			send(t, s, id, r)
		}(base+i, r)
	}
	for _, r := range run.reqs {
		select {
		case <-r.complete:
		default:
			run.outstanding++
		}
	}
	wg.Wait()
	return run
}

// send is one request: the batch, then the subscription, then the wait
// for every envelope.
func send(t *trio, s *sink, id int, r *inflight) {
	r.sent = time.Now()
	body, _ := json.Marshal(map[string]any{"jobs": r.specs})
	var bv struct {
		Accepted int `json:"accepted"`
		Cached   int `json:"cached"`
		Jobs     []struct {
			Hash   string `json:"hash"`
			Status string `json:"status"`
		} `json:"jobs"`
	}
	start := time.Now()
	if r.err = post(t.client, t.coord.url+"/v2/batches", body, http.StatusAccepted, &bv); r.err != nil {
		return
	}
	r.batchDur = time.Since(start)
	if bv.Accepted != len(r.specs) || len(bv.Jobs) != len(r.specs) {
		r.err = fmt.Errorf("batch accepted %d of %d specs", bv.Accepted, len(r.specs))
		return
	}
	for i, j := range bv.Jobs {
		if j.Hash != r.hashes[i] {
			r.err = fmt.Errorf("batch hash %s, the spec's content hash is %s", j.Hash, r.hashes[i])
			return
		}
	}
	if wantCached := map[bool]int{true: len(r.specs), false: 0}[r.hit]; bv.Cached != wantCached {
		r.err = fmt.Errorf("batch answered %d of %d specs from the store, want %d", bv.Cached, len(r.specs), wantCached)
		return
	}
	sub, _ := json.Marshal(map[string]any{
		"url": fmt.Sprintf("%s/hook/%d", s.url, id), "secret": string(r.secret), "hashes": r.hashes,
	})
	var sv struct {
		ID string `json:"id"`
	}
	start = time.Now()
	if r.err = post(t.client, t.coord.url+"/v2/subscriptions", sub, http.StatusCreated, &sv); r.err != nil {
		return
	}
	r.subDur = time.Since(start)
	r.subID = sv.ID
	select {
	case <-r.complete:
	case <-time.After(requestWait):
		r.err = fmt.Errorf("only %d of %d envelopes within %v", r.received(), len(r.hashes), requestWait)
	}
}

func (r *inflight) received() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

func post(c *http.Client, url string, body []byte, want int, into any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, into)
}

// newClient is the generator's HTTP client: at most two connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestWait,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     time.Minute,
		},
	}
}
