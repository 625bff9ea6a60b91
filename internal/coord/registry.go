// Fleet membership: registration, heartbeats, expiry, and the per-worker
// lane that drives each registered alsd through the shared fair queue.
package coord

import (
	"context"
	"fmt"
	"net/url"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/exp"
)

// worker is one registered alsd. Mutable fields are guarded by the
// coordinator mutex.
type worker struct {
	id     string
	url    string
	cancel context.CancelFunc

	lastBeat    time.Time
	queueDepth  int
	evalsTotal  int64
	evalsPerSec float64
	// rate is the EWMA of completed cells/sec observed by the coordinator
	// itself — the basis of the adaptive submit window.
	rate         float64
	lastComplete time.Time
}

// noteCompletion folds one finished cell into the worker's observed
// throughput; caller holds the coordinator mutex.
func (w *worker) noteCompletion() {
	now := time.Now()
	if !w.lastComplete.IsZero() {
		if dt := now.Sub(w.lastComplete).Seconds(); dt > 0 {
			const alpha = 0.3
			w.rate = alpha*(1/dt) + (1-alpha)*w.rate
		}
	}
	w.lastComplete = now
}

// windowHorizon is how much work the adaptive window keeps a worker fed
// with: enough cells for ~2s at its observed completion rate.
const windowHorizon = 2 * time.Second

// optimisticWindow seeds a worker with no throughput history yet.
const optimisticWindow = 4

// window is the adaptive submit cap for one worker: observed rate times
// the horizon, clamped to [1, SubmitBatch]; a worker whose heartbeat
// reports a saturated queue is held to 1 until it drains.
func (c *Coordinator) window(w *worker) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.queueDepth >= c.opts.SubmitBatch*2 {
		return 1
	}
	if w.rate == 0 {
		return optimisticWindow
	}
	n := int(w.rate * windowHorizon.Seconds())
	if n < 1 {
		n = 1
	}
	if n > c.opts.SubmitBatch {
		n = c.opts.SubmitBatch
	}
	return n
}

// Register adds (or re-adds) a worker by base URL and starts its lane.
// The same URL re-registering replaces the old entry: the stale lane is
// cancelled and its cells return to the queue before the new lane starts.
func (c *Coordinator) Register(rawURL string) (id string, interval time.Duration, err error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", 0, fmt.Errorf("coord: register: %q is not an http(s) base URL", rawURL)
	}
	base := strings.TrimRight(rawURL, "/")

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return "", 0, errDraining
	}
	var stale *worker
	for _, w := range c.workers {
		if w.url == base {
			stale = w
			break
		}
	}
	if stale != nil {
		delete(c.workers, stale.id)
		c.met.workers.Dec()
	}
	c.workerSeq++
	w := &worker{id: fmt.Sprintf("w%04d", c.workerSeq), url: base, lastBeat: time.Now()}
	ctx, cancel := context.WithCancel(c.baseCtx)
	w.cancel = cancel
	c.workers[w.id] = w
	c.met.workers.Inc()
	c.mu.Unlock()

	if stale != nil {
		stale.cancel() // its lane requeues leftovers on the way out
	}
	sp := c.opts.Tracer.StartRoot("cluster.register")
	sp.SetAttr("worker", w.id)
	sp.SetAttr("url", base)
	sp.End()
	c.wg.Add(1)
	go c.runWorkerLane(w, ctx)
	c.log.Info("worker registered", "worker", w.id, "url", base)
	return w.id, c.opts.HeartbeatInterval, nil
}

// Heartbeat records one beat; false means the id is unknown (expired or
// never registered) and the worker must re-register.
func (c *Coordinator) Heartbeat(id string, queueDepth int, evalsTotal int64, evalsPerSec float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	w.lastBeat = time.Now()
	w.queueDepth = queueDepth
	w.evalsTotal = evalsTotal
	w.evalsPerSec = evalsPerSec
	c.met.heartbeats.Inc()
	return true
}

// Deregister removes a worker gracefully (clean shutdown); its lane stops
// and in-flight cells return to the queue.
func (c *Coordinator) Deregister(id string) bool {
	c.mu.Lock()
	w, ok := c.workers[id]
	if ok {
		delete(c.workers, id)
		c.met.workers.Dec()
	}
	c.mu.Unlock()
	if !ok {
		return false
	}
	w.cancel()
	c.log.Info("worker deregistered", "worker", id, "url", w.url)
	return true
}

// Workers snapshots the live fleet for the operator surface.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerView{
			ID: w.id, URL: w.url,
			LastHeartbeat: w.lastBeat,
			QueueDepth:    w.queueDepth,
			EvalsTotal:    w.evalsTotal,
			EvalsPerSec:   w.evalsPerSec,
			CellsPerSec:   w.rate,
		})
	}
	return out
}

// WorkerView is one registered worker as reported by GET /cluster/workers.
type WorkerView struct {
	ID            string    `json:"id"`
	URL           string    `json:"url"`
	LastHeartbeat time.Time `json:"last_heartbeat"`
	QueueDepth    int       `json:"queue_depth"`
	EvalsTotal    int64     `json:"evals_total"`
	EvalsPerSec   float64   `json:"evals_per_sec"`
	CellsPerSec   float64   `json:"cells_per_sec"`
}

// sweeper expires workers that stopped heartbeating: ExpireAfter silent
// intervals cancel the worker's lane (failing its cells over to the
// queue) and drop it from the registry — it is never probed again unless
// it re-registers.
func (c *Coordinator) sweeper() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.baseCtx.Done():
			return
		case <-ticker.C:
		}
		deadline := time.Duration(c.opts.ExpireAfter) * c.opts.HeartbeatInterval
		var expired []*worker
		c.mu.Lock()
		for id, w := range c.workers {
			if time.Since(w.lastBeat) > deadline {
				delete(c.workers, id)
				c.met.workers.Dec()
				c.met.expired.Inc()
				expired = append(expired, w)
			}
		}
		c.mu.Unlock()
		for _, w := range expired {
			c.log.Warn("worker expired", "worker", w.id, "url", w.url,
				"missed", c.opts.ExpireAfter, "interval", c.opts.HeartbeatInterval.String())
			w.cancel()
		}
	}
}

// runWorkerLane drives one registered worker with the shared lane engine
// until the worker is expired, deregistered, dies, or the coordinator
// closes. Leftovers always return to the fair queue.
func (c *Coordinator) runWorkerLane(w *worker, ctx context.Context) {
	defer c.wg.Done()
	laneSpan := c.opts.Tracer.StartRoot("coord.lane")
	laneSpan.SetAttr("worker", w.id)
	laneSpan.SetAttr("url", w.url)
	l := &dispatch.Lane{
		Name:         w.url,
		Base:         w.url,
		Client:       c.opts.Client,
		SubmitBatch:  c.opts.SubmitBatch,
		RetryBudget:  c.opts.RetryBudget,
		Backoff:      c.opts.Backoff,
		MaxBackoff:   c.opts.MaxBackoff,
		PollInterval: c.opts.PollInterval,
		Logger:       c.log.With("worker", w.id),
		Metrics:      c.met.dispatch,
		Sched:        &laneSched{c: c, w: w, ctx: ctx},
		Ctx:          ctx,
		Store:        c.opts.Store,
		RequestID:    "coord-" + w.id,
		Span:         laneSpan,
	}
	leftovers, cause := l.Run()
	c.requeue(leftovers)
	laneSpan.SetAttr("requeued", len(leftovers))
	if cause != nil {
		laneSpan.SetAttr("error", cause.Error())
		c.dropDeadWorker(w, cause)
	}
	laneSpan.End()
}

// dropDeadWorker removes a worker whose lane died (retry budget spent,
// draining, incompatible build). Unlike a transient blip — which the
// lane's own backoff rides out — a dead lane means the worker is gone
// for good as far as this registration is concerned: it must register
// again to rejoin, and nothing re-probes it meanwhile.
func (c *Coordinator) dropDeadWorker(w *worker, cause error) {
	c.mu.Lock()
	_, present := c.workers[w.id]
	if present {
		delete(c.workers, w.id)
		c.met.workers.Dec()
		c.met.expired.Inc()
	}
	c.mu.Unlock()
	w.cancel()
	if present {
		c.log.Warn("worker dropped", "worker", w.id, "url", w.url, "error", cause.Error())
	}
}

// laneSched adapts the coordinator's shared queue to the lane engine:
// Next/Fill pull from the weighted-fair queue (Fill keeps the lane's
// holding within the worker's adaptive window), Offload returns cells for
// other lanes to steal, completions and failures land in the cell table.
type laneSched struct {
	c   *Coordinator
	w   *worker
	ctx context.Context
}

func (s *laneSched) Next() (*dispatch.Task, bool) {
	cl, ok := s.c.queue.pop(s.ctx)
	if !ok {
		return nil, false
	}
	return s.c.assign(s.w, cl), true
}

func (s *laneSched) Fill(held int) []*dispatch.Task {
	n := s.c.window(s.w) - held
	var out []*dispatch.Task
	for len(out) < n {
		cl, ok := s.c.queue.tryPop()
		if !ok {
			break
		}
		out = append(out, s.c.assign(s.w, cl))
	}
	return out
}

// Offload returns queue-full remainders to the shared queue, where any
// idle lane steals them — the whole point of scheduling by throughput.
func (s *laneSched) Offload(tasks []*dispatch.Task) bool {
	s.c.requeue(tasks)
	return true
}

func (s *laneSched) Complete(t *dispatch.Task, r exp.JobResult) error {
	return s.c.completeCell(s.w, t.Hash, r)
}

// JobFailed poisons only the failing cell; the lane (and the cluster)
// keeps going. Clients polling the hash see the failure and decide.
func (s *laneSched) JobFailed(t *dispatch.Task, msg string) error {
	s.c.failCell(t.Hash, msg)
	return nil
}

// Fatal ends this worker's registration (incompatible build, rejected
// batch): the worker is dropped outright — the lane context dies with it
// and runWorkerLane requeues whatever the lane still held.
func (s *laneSched) Fatal(err error) {
	s.c.log.Error("worker lane fatal", "worker", s.w.id, "url", s.w.url, "error", err.Error())
	s.c.dropDeadWorker(s.w, err)
}
