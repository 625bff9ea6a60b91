package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	als "repro"
)

// buildDaemons compiles alsd and alscoord from the checkout under test.
func buildDaemons(root, dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/alsd", "./cmd/alscoord")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	return cmd.Run()
}

// promSum adds up every sample of one metric in a /metrics text page
// whose label set contains all of labels (e.g. `route="GET /v1/jobs/{hash}"`).
func promSum(page []byte, name string, labels ...string) float64 {
	sum := 0.0
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(rest, l)
		}
		if !ok {
			continue
		}
		fields := strings.Fields(rest[strings.LastIndex(rest, " "):])
		if len(fields) == 1 {
			if v, err := strconv.ParseFloat(fields[0], 64); err == nil {
				sum += v
			}
		}
	}
	return sum
}

// scrape reads /metrics from each daemon of the trio.
func (t *trio) scrape() (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, d := range t.daemons() {
		page, err := t.get(d.url + "/metrics")
		if err != nil {
			return nil, err
		}
		out[d.name] = page
	}
	return out, nil
}

// delta is a frozen metric's growth between two scrapes, summed over the
// named daemons.
func delta(before, after map[string][]byte, daemons []string, name string, labels ...string) float64 {
	sum := 0.0
	for _, d := range daemons {
		sum += promSum(after[d], name, labels...) - promSum(before[d], name, labels...)
	}
	return sum
}

var workerNames = []string{"alsd1", "alsd2"}

// spanRec is the part of an exported span record the metrics need.
type spanRec struct {
	SpanID   string         `json:"span_id"`
	Parent   string         `json:"parent_id"`
	Name     string         `json:"name"`
	Start    time.Time      `json:"start"`
	End      time.Time      `json:"end"`
	Duration int64          `json:"duration_ns"`
	Attrs    map[string]any `json:"attrs"`
}

func (t *trio) traces(d *daemon) ([]spanRec, error) {
	page, err := t.get(d.url + "/debug/traces?format=jsonl&limit=0")
	if err != nil {
		return nil, err
	}
	var out []spanRec
	dec := json.NewDecoder(bytes.NewReader(page))
	for dec.More() {
		var r spanRec
		if err := dec.Decode(&r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// clusterRun is one trio's timed schedule plus what was read around it.
type clusterRun struct {
	sched         *scheduleRun
	before, after map[string][]byte
	walBefore     int64
	walAfter      int64
	rssMB         float64
	coordSpans    []spanRec
	workerSpans   []spanRec
	stores        []string
	freshCells    int
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// copyFile copies a store file so it can be read after its daemons stop.
func copyFile(src, dst string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}

// clusterSession holds what one invocation shares across its boots.
type clusterSession struct {
	cfg    config
	in     clusterInputs
	bins   string
	keys   []string
	vals   [][]byte
	stored map[string][]byte
	sink   *sink
	client *http.Client
	nextID int
	rep    *report
}

// setup boots a trio and warms it up identically every time.
func (s *clusterSession) setup(dir string, traced bool) (*trio, error) {
	t, err := bootTrio(s.bins, dir, s.keys, s.vals, traced, s.client)
	if err != nil {
		return nil, err
	}
	warm := runSchedule(t, s.sink, s.in.warm, s.nextID, false)
	s.nextID += len(s.in.warm)
	for _, r := range warm.reqs {
		if err := s.verify(r); err != nil {
			s.rep.fail("warm-up request: %v", err)
		}
	}
	return t, nil
}

// timed runs the schedule on a set-up trio and reads the counters,
// traces and memory around it.
func (s *clusterSession) timed(t *trio) (*clusterRun, error) {
	cr := &clusterRun{stores: t.stores}
	var err error
	if cr.before, err = t.scrape(); err != nil {
		return nil, err
	}
	cr.walBefore = fileSize(t.coordWAL)
	// peak_rss_mb is the median of the three daemons' summed peaks over
	// 5 s segments of the schedule.
	var pids []string
	for _, d := range t.daemons() {
		pids = append(pids, strconv.Itoa(d.cmd.Process.Pid))
	}
	rss := startRSS(5*time.Second, pids...)
	cr.sched = runSchedule(t, s.sink, s.in.sched, s.nextID, true)
	cr.rssMB = rss.finish()
	s.nextID += len(s.in.sched)
	// Deliveries are recorded after the envelope's 2xx; let the last ones land.
	time.Sleep(50 * time.Millisecond)
	if cr.after, err = t.scrape(); err != nil {
		return nil, err
	}
	cr.walAfter = fileSize(t.coordWAL)
	for _, r := range s.in.sched {
		if !r.hit {
			cr.freshCells += len(r.specs)
		}
	}
	if t.traced {
		if cr.coordSpans, err = t.traces(t.coord); err != nil {
			return nil, err
		}
		for _, w := range []*daemon{t.w1, t.w2} {
			spans, err := t.traces(w)
			if err != nil {
				return nil, err
			}
			cr.workerSpans = append(cr.workerSpans, spans...)
		}
	}
	return cr, nil
}

// verify checks one finished request's envelopes.
func (s *clusterSession) verify(r *inflight) error {
	if r.err != nil {
		return r.err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dup > 0 {
		return fmt.Errorf("%d duplicate envelopes", r.dup)
	}
	if len(r.subs) != 1 || !r.subs[r.subID] {
		return fmt.Errorf("envelopes name subscriptions %v, want %q", r.subs, r.subID)
	}
	for i, h := range r.hashes {
		raw := r.got[h]
		if r.hit {
			if !bytes.Equal(raw, s.stored[h]) {
				return fmt.Errorf("hit %s: envelope result %s differs from the stored %s", h, raw, s.stored[h])
			}
			continue
		}
		var res jobResult
		if err := json.Unmarshal(raw, &res); err != nil {
			return err
		}
		if res.Err > r.specs[i].Budget || res.AreaFinal > res.AreaCon {
			return fmt.Errorf("fresh %s violates a constraint: %s", h, raw)
		}
	}
	return nil
}

func runCluster(cfg config, rep *report) error {
	in := drawCluster(cfg.seed, cfg.seconds)
	fmt.Fprintf(os.Stderr, "e2ebench: cluster-mixed seed %d: %d requests at %.0f/s, %d hit cells\n",
		cfg.seed, len(in.sched), clusterRate, len(in.hits))
	dir, err := os.MkdirTemp(cfg.work, "cluster-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	s := &clusterSession{cfg: cfg, in: in, bins: filepath.Join(dir, "bin"), stored: map[string][]byte{}, rep: rep}
	if err := buildDaemons(cfg.root, s.bins); err != nil {
		return fmt.Errorf("building the daemons: %w", err)
	}
	// Yesterday's results: the hit set, computed in-process.
	for _, sp := range in.hits {
		res, err := runSpec(context.Background(), sp)
		if err != nil {
			return fmt.Errorf("hit cell %v: %w", sp, err)
		}
		raw, _ := json.Marshal(res)
		h := contentHash(sp)
		s.keys, s.vals, s.stored[h] = append(s.keys, h), append(s.vals, raw), raw
	}
	if s.sink, err = startSink(); err != nil {
		return err
	}
	defer s.sink.close()
	s.client = newClient()
	defer s.client.CloseIdleConnections()

	rep.attempted = len(in.sched)
	if !cfg.trace {
		// The middle set-up's trio runs the schedule, so the set-ups
		// sample the host before and after it.
		var setups []float64
		var cr *clusterRun
		for i := 0; i < setupRuns; i++ {
			start := time.Now()
			t, err := s.setup(filepath.Join(dir, fmt.Sprintf("boot%d", i)), false)
			if err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			if i == setupRuns/2 {
				cr, err = s.timed(t)
			}
			t.stop()
			if err != nil {
				return err
			}
		}
		s.check(cr)
		s.endToEnd(cr, median(setups))
		return nil
	}

	// Traced run: the same schedule on an untraced and then a traced trio.
	t, err := s.setup(filepath.Join(dir, "plain"), false)
	if err != nil {
		return err
	}
	plain, err := s.timed(t)
	t.stop()
	if err != nil {
		return err
	}
	if t, err = s.setup(filepath.Join(dir, "traced"), true); err != nil {
		return err
	}
	traced, err := s.timed(t)
	t.stop()
	if err != nil {
		return err
	}
	s.check(plain)
	s.check(traced)
	s.perLayer(plain, traced, dir)
	return nil
}

// check verifies every request of a timed schedule and the workers'
// executed count.
func (s *clusterSession) check(cr *clusterRun) {
	for i, r := range cr.sched.reqs {
		if err := s.verify(r); err != nil {
			s.rep.fail("request %d: %v", i, err)
		}
	}
	for _, p := range s.sink.bad {
		s.rep.fail("%s", p)
	}
	s.sink.bad = nil
	if executed := delta(cr.before, cr.after, workerNames, "als_jobs_executed_total"); int(executed) != cr.freshCells {
		s.rep.fail("workers executed %v flows for %d fresh cells", executed, cr.freshCells)
	}
	fmt.Printf("cluster: %d requests, %d outstanding when the schedule ended, %d fresh cells\n",
		len(cr.sched.reqs), cr.sched.outstanding, cr.freshCells)
}

// rerun re-computes a seeded sample of the schedule's fresh cells
// in-process and compares each with its envelope bit for bit. When probe
// is not nil, each sampled cell is then handed to it.
func (s *clusterSession) rerun(cr *clusterRun, probe func(spec)) {
	type cell struct {
		sp  spec
		raw json.RawMessage
	}
	var fresh []cell
	for _, r := range cr.sched.reqs {
		if r.hit || r.err != nil {
			continue
		}
		for i, sp := range r.specs {
			fresh = append(fresh, cell{sp, r.got[r.hashes[i]]})
		}
	}
	rng := rand.New(rand.NewSource(s.cfg.seed))
	for _, i := range rng.Perm(len(fresh))[:min(rerunSample, len(fresh))] {
		c := fresh[i]
		var got jobResult
		if err := json.Unmarshal(c.raw, &got); err != nil {
			s.rep.fail("fresh %v: %v", c.sp, err)
			continue
		}
		want, err := runSpec(context.Background(), c.sp)
		if err != nil {
			s.rep.fail("re-running %v: %v", c.sp, err)
			continue
		}
		if !want.sameFlow(got) {
			s.rep.fail("fresh %v: envelope %+v, in-process re-run %+v", c.sp, got, want)
		}
		if probe != nil {
			probe(c.sp)
		}
	}
}

// probeCell re-runs one cell traced, under a CPU-profile window of its
// own, and probes its layers.
func (s *clusterSession) probeCell(probe *layerProbe, cpu *cpuTally, sp spec) {
	c, err := als.BenchmarkByName(sp.Circuit)
	if err != nil {
		s.rep.fail("%v", err)
		return
	}
	it := flowItem{cellSpec: tableCell(sp.Circuit, als.MethodDCGWO), Seed: sp.Seed}
	lib := als.NewLibrary()
	var res *als.FlowResult
	var front als.Front
	if perr := cpu.profile(func() {
		ctx, done := probe.flowContext(context.Background())
		res, front, err = runFlow(ctx, c, lib, it, als.ScaleQuick)
		done()
	}); perr != nil {
		err = perr
	}
	if err == nil {
		err = probe.measure(it, c, res, front)
	}
	if err != nil {
		s.rep.fail("probing %v: %v", sp, err)
	}
}

// freshResults decodes the results of a schedule's fresh cells, in
// schedule order and, within a request, in the order of its specs, so
// every figure derived from them is the same at a given seed, bit for
// bit. Requests that failed are left out.
func freshResults(reqs []*inflight) []jobResult {
	var out []jobResult
	for _, r := range reqs {
		if r.hit || r.err != nil {
			continue
		}
		for _, h := range r.hashes {
			var res jobResult
			if json.Unmarshal(r.got[h], &res) == nil {
				out = append(out, res)
			}
		}
	}
	return out
}

func (s *clusterSession) latencies(cr *clusterRun) (hit, fresh []float64) {
	for _, r := range cr.sched.reqs {
		if r.err != nil {
			continue
		}
		if r.hit {
			hit = append(hit, ms(r.latency()))
		} else {
			fresh = append(fresh, ms(r.latency()))
		}
	}
	return hit, fresh
}

func (s *clusterSession) endToEnd(cr *clusterRun, setup float64) {
	s.rerun(cr, nil)
	_, fresh := s.latencies(cr)
	var ratios []float64
	for _, res := range freshResults(cr.sched.reqs) {
		ratios = append(ratios, res.RatioCPD)
	}
	var first, last time.Time
	for _, r := range cr.sched.reqs {
		if r.hit || r.err != nil {
			continue
		}
		if first.IsZero() {
			first = r.scheduled
		}
		if r.last.After(last) {
			last = r.last
		}
	}
	s.rep.set("setup_s", setup)
	s.rep.set("peak_rss_mb", cr.rssMB)
	s.rep.set("ratio_cpd_geomean", geomean(ratios))
	s.rep.set("flows_per_s", float64(len(ratios))/last.Sub(first).Seconds())
	s.rep.set("fresh_ms_p50", percentile(fresh, 0.5))
	s.rep.set("fresh_ms_p90", percentile(fresh, 0.9))
}

func (s *clusterSession) perLayer(plain, traced *clusterRun, dir string) {
	rep := s.rep
	var batchHit, batchFresh, subscribe, late []float64
	var sumPlain, sumTraced float64
	for i, r := range traced.sched.reqs {
		late = append(late, ms(r.sent.Sub(r.scheduled)))
		if r.err != nil || plain.sched.reqs[i].err != nil {
			continue
		}
		sumTraced += ms(r.latency())
		sumPlain += ms(plain.sched.reqs[i].latency())
		subscribe = append(subscribe, ms(r.subDur))
		if r.hit {
			batchHit = append(batchHit, ms(r.batchDur))
		} else {
			batchFresh = append(batchFresh, ms(r.batchDur))
		}
	}
	rep.set("coord.batch_hit_ms", mean(batchHit))
	rep.set("coord.batch_fresh_ms", mean(batchFresh))
	rep.set("coord.subscribe_ms", mean(subscribe))
	rep.set("client.late_ms_p90", percentile(late, 0.9))
	// Hit latency hinges on the coordinator WAL's fsyncs, whose latency on
	// a shared virtual disk swings 2x between runs: too unsteady to bound,
	// so it is reported here, from the untraced trio.
	hit, _ := s.latencies(plain)
	rep.set("hit_ms_p50", percentile(hit, 0.5))
	rep.set("hit_ms_p90", percentile(hit, 0.9))
	rep.set("trace.overhead_frac", sumTraced/sumPlain-1)

	b, a, cells := traced.before, traced.after, float64(traced.freshCells)
	histMean := func(name string) float64 {
		n := delta(b, a, workerNames, name+"_count")
		if n == 0 {
			return 0
		}
		return delta(b, a, workerNames, name+"_sum") / n * 1000
	}
	rep.set("service.queue_wait_ms", histMean("als_queue_wait_seconds"))
	rep.set("service.job_ms", histMean("als_job_duration_seconds"))
	rep.set("service.polls_per_cell", delta(b, a, workerNames, "als_http_requests_total", `route="GET /v1/jobs/{hash}"`)/cells)
	rep.set("coord.steals", delta(b, a, []string{"alscoord"}, "als_cluster_steals_total"))
	rep.set("wal.worker_appends_per_cell", delta(b, a, workerNames, "als_wal_appends_total")/cells)
	rep.set("wal.coord_bytes_per_req", float64(traced.walAfter-traced.walBefore)/float64(len(traced.sched.reqs)))
	rep.set("service.executed", delta(b, a, workerNames, "als_jobs_executed_total"))
	rep.set("webhook.retries", delta(b, a, []string{"alscoord"}, "als_webhook_retries_total"))

	// Span-derived metrics; span names are not a frozen surface, so a
	// missing name leaves its metric absent.
	var deliver, puts []float64
	for _, sp := range traced.coordSpans {
		if sp.Name == "webhook.deliver" {
			deliver = append(deliver, float64(sp.Duration)/1e6)
		}
	}
	byID := map[string]spanRec{}
	waits := map[string][]spanRec{} // parent → queue.wait spans
	runs := map[string]spanRec{}    // cell hash → job.run span
	for _, sp := range traced.workerSpans {
		byID[sp.SpanID] = sp
		switch sp.Name {
		case "store.put":
			puts = append(puts, float64(sp.Duration)/1e3)
		case "queue.wait":
			waits[sp.Parent] = append(waits[sp.Parent], sp)
		case "job.run":
			if h, ok := sp.Attrs["hash"].(string); ok {
				runs[h] = sp
			}
		}
	}
	if len(deliver) > 0 {
		rep.set("webhook.deliver_ms", mean(deliver))
	}
	if len(puts) > 0 {
		rep.set("store.put_us", mean(puts))
	}
	// A cell's worker time runs from its queue.wait start (the sibling
	// that ended as its job.run began) to its job.run end.
	cellMS := func(h string) (float64, bool) {
		run, ok := runs[h]
		if !ok {
			return 0, false
		}
		start, best := run.Start, time.Duration(-1)
		for _, w := range waits[run.Parent] {
			if d := run.Start.Sub(w.End).Abs(); best < 0 || d < best {
				start, best = w.Start, d
			}
		}
		return float64(run.End.Sub(start)) / 1e6, true
	}
	var overhead []float64
	for _, r := range traced.sched.reqs {
		if r.hit || r.err != nil {
			continue
		}
		slowest, ok := 0.0, true
		for _, h := range r.hashes {
			m, found := cellMS(h)
			ok = ok && found
			slowest = max(slowest, m)
		}
		if ok {
			overhead = append(overhead, ms(r.latency())-slowest)
		}
	}
	if len(overhead) > 0 {
		rep.set("coord.overhead_ms_p50", median(overhead))
	}

	// Store reads, on copies of the run's store files.
	var copies, hashes []string
	for i, f := range traced.stores {
		c := filepath.Join(dir, fmt.Sprintf("store-copy-%d", i))
		if err := copyFile(f, c); err != nil {
			rep.fail("copying %s: %v", f, err)
			return
		}
		copies = append(copies, c)
	}
	for _, r := range traced.sched.reqs {
		hashes = append(hashes, r.hashes...)
	}
	if us, ok, err := storeGetUS(copies, hashes); err != nil {
		rep.fail("reading the stores: %v", err)
	} else if ok {
		rep.set("store.get_us", us)
	}

	// Engine layers, from the in-process re-runs of the fresh sample.
	probe := newLayerProbe(als.NewLibrary(), 2048)
	if probe == nil {
		s.rerun(traced, nil)
		return
	}
	var builds []flowItem
	for _, c := range freshCircuits {
		builds = append(builds, flowItem{cellSpec: cellSpec{Circuit: c}})
	}
	probe.timeBuilds(builds)
	cpu := newCPUTally()
	s.rerun(traced, func(sp spec) { s.probeCell(probe, cpu, sp) })
	shares, err := cpu.shares()
	if err != nil {
		rep.fail("%v", err)
		return
	}
	probe.report(rep)
	for name, v := range shares {
		rep.set(name+".cpu_frac", v)
	}
}
