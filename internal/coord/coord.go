// Package coord is the cluster control plane: a long-lived coordinator
// daemon (cmd/alscoord) that owns fleet membership, scheduling and result
// delivery for a fleet of alsd workers. It is registration-driven and
// throughput-adaptive:
//
//   - Workers join with POST /cluster/register and stay live by
//     heartbeating (queue depth and evals/sec from their own telemetry
//     counters ride along). A worker that misses ExpireAfter heartbeats
//     is drained: its lane stops, its in-flight cells fail over to the
//     queue, and it is forgotten until it re-registers — never re-probed.
//   - Each registered worker is driven by the lane engine every sweep
//     client uses (dispatch.Lane: batch submit, poll by hash, capped
//     backoff, store-consulted 404 resubmit); the lanes pull from one
//     shared weighted-fair queue, sized by the worker's observed
//     completion rate, so fast workers naturally take more and idle
//     lanes steal queue-full handbacks.
//   - Jobs carry a tenant and a priority; dequeue is weighted-fair across
//     tenants (queue.go) and per-tenant quotas bound how much any one
//     tenant may keep pending.
//   - Results fan out without per-client connections: /v2/batches accepts
//     many specs in one 202 (deduplicated against the shared store before
//     anything is scheduled) and /v2/subscriptions registers a callback
//     URL for a set of content hashes — each result is POSTed once as an
//     HMAC-signed envelope with capped-backoff retries (webhook.go).
//
// Everything the coordinator promises is write-ahead logged (wal.go):
// accepted cells, terminal transitions, subscriptions and acknowledged
// deliveries survive a SIGKILL and replay on restart.
//
// The coordinator serves the same worker job API as every alsd
// (POST /v1/jobs, GET /v1/jobs/{hash}, /healthz), so `experiments
// -coord=URL` drives either one the same way — results are
// byte-identical to local runs because a cell is a pure function of its
// content hash, wherever it runs.
package coord

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultTenant labels submissions that carry no explicit tenant (the
// worker job API used by cmd/experiments, for instance).
const DefaultTenant = "default"

// maxCells bounds the in-memory cell table; beyond it the oldest terminal
// cells are evicted. Their results stay store-addressable by hash, so
// GET /v1/jobs/{hash} keeps answering.
const maxCells = 8192

// Options configures a Coordinator.
type Options struct {
	// Store is the shared result store every accepted cell is deduped
	// against and every finished result is persisted to. Required: the
	// control plane's exactly-once story leans on content-hash identity.
	Store *store.Store
	// WAL makes the coordinator's promises durable (wal.go). Nil disables
	// durability. The caller owns it and closes it after Close returns.
	WAL *WAL
	// Logger receives structured records; nil discards.
	Logger *slog.Logger
	// Tracer records registration, steal and delivery spans; nil disables.
	Tracer *trace.Tracer
	// Metrics is the registry to instrument (GET /metrics); nil allocates
	// a private one.
	Metrics *telemetry.Registry
	// HeartbeatInterval is the cadence workers are told to beat at
	// (default 2s); ExpireAfter is how many intervals of silence drain a
	// worker (default 3).
	HeartbeatInterval time.Duration
	ExpireAfter       int
	// MaxPendingPerTenant caps one tenant's queued+running cells (default
	// 4096); batch intake beyond it is cut with the accepted prefix, like
	// a full worker queue. WAL replay is exempt — re-accepting yesterday's
	// promises must never self-reject (the PR 9 depth+pending guard,
	// applied to batch intake).
	MaxPendingPerTenant int
	// TenantWeights skews the fair dequeue (default weight 1 per tenant).
	TenantWeights map[string]int
	// Lane knobs, same semantics and defaults as dispatch.Options.
	Client       *http.Client
	SubmitBatch  int
	RetryBudget  int
	Backoff      time.Duration
	MaxBackoff   time.Duration
	PollInterval time.Duration
	// WebhookRetryBudget caps delivery attempts per envelope per process
	// lifetime (default 6; the WAL re-arms undelivered envelopes across
	// restarts). WebhookBackoff/WebhookMaxBackoff pace the retries
	// (defaults 100ms and 5s).
	WebhookRetryBudget int
	WebhookBackoff     time.Duration
	WebhookMaxBackoff  time.Duration
}

func (o Options) withDefaults() Options {
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 2 * time.Second
	}
	if o.ExpireAfter <= 0 {
		o.ExpireAfter = 3
	}
	if o.MaxPendingPerTenant <= 0 {
		o.MaxPendingPerTenant = 4096
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if o.SubmitBatch <= 0 {
		o.SubmitBatch = 16
	}
	if o.SubmitBatch > service.MaxBatchJobs {
		o.SubmitBatch = service.MaxBatchJobs
	}
	if o.RetryBudget <= 0 {
		o.RetryBudget = 4
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 2 * time.Second
	}
	if o.PollInterval <= 0 {
		o.PollInterval = 50 * time.Millisecond
	}
	if o.WebhookRetryBudget <= 0 {
		o.WebhookRetryBudget = 6
	}
	if o.WebhookBackoff <= 0 {
		o.WebhookBackoff = 100 * time.Millisecond
	}
	if o.WebhookMaxBackoff <= 0 {
		o.WebhookMaxBackoff = 5 * time.Second
	}
	return o
}

// cellState is one scheduled cell. Mutable fields are guarded by the
// coordinator mutex.
type cellState struct {
	hash     string
	job      exp.Job
	tenant   string
	priority int
	status   service.Status // queued, running, done, failed
	cached   bool
	result   *exp.JobResult
	errMsg   string
	// lastWorker is the worker id that last held the cell; a different
	// worker picking it up counts as a steal (offload or failover).
	lastWorker string
	// done is closed at the cell's terminal transition, waking the result
	// polls held on it (GET /v1/jobs/{hash}?wait=); a failed cell that is
	// resubmitted gets a fresh one.
	done chan struct{}
}

// settleLocked moves a cell to its terminal status and releases the
// polls held on it; coordinator mutex held.
func (cl *cellState) settleLocked(st service.Status) {
	cl.status = st
	close(cl.done)
}

// Coordinator owns the cluster state. Create with New, serve Handler,
// shut down with Close.
type Coordinator struct {
	opts Options
	log  *slog.Logger
	met  *coordMetrics

	queue      *fairQueue
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup
	holds      service.PollHolds // held result polls (http.go)

	mu        sync.Mutex
	draining  bool
	cells     map[string]*cellState
	cellOrder []string
	// pendingByTenant counts queued+running cells per tenant for the
	// quota check.
	pendingByTenant map[string]int
	workers         map[string]*worker
	workerSeq       int
	subs            map[string]*subscription
	subSeq          int
}

// New builds the coordinator, replays its WAL, and starts the heartbeat
// sweeper. opts.Store is required.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if opts.Store == nil {
		return nil, errors.New("coord: a shared result store is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		opts:            opts,
		log:             opts.Logger,
		met:             newCoordMetrics(opts.Metrics),
		baseCtx:         ctx,
		baseCancel:      cancel,
		cells:           map[string]*cellState{},
		pendingByTenant: map[string]int{},
		workers:         map[string]*worker{},
		subs:            map[string]*subscription{},
	}
	c.queue = newFairQueue(opts.TenantWeights, c.met.queueDepth)
	if opts.WAL != nil {
		c.replayWAL()
	}
	c.wg.Add(1)
	go c.sweeper()
	return c, nil
}

// replayWAL rebuilds the promise ledger: pending cells rejoin their
// tenant queues (store hits complete immediately, nothing recomputes),
// subscriptions re-arm, and every done-but-unacknowledged envelope is
// re-queued for delivery. Afterwards the journal is compacted to the
// live state.
func (c *Coordinator) replayWAL() {
	wal := c.opts.WAL
	replayed := 0
	for _, wc := range wal.Pending() {
		if _, err := c.submitOne(wc.Job, wc.Tenant, wc.Priority, true); err != nil {
			c.log.Warn("wal replay rejected", "hash", wc.Hash, "error", err)
			c.walResolve(walOpFailed, wc.Hash)
			continue
		}
		replayed++
	}
	for _, ws := range wal.Subs() {
		c.restoreSubscription(ws)
	}
	if replayed > 0 || len(wal.Subs()) > 0 {
		c.log.Info("wal replayed", "cells", replayed, "subscriptions", len(c.subs))
	}
	c.mu.Lock()
	var cells []WALCell
	for _, h := range c.cellOrder {
		if cl := c.cells[h]; cl != nil && !terminal(cl.status) {
			cells = append(cells, WALCell{Hash: cl.hash, Job: cl.job, Tenant: cl.tenant, Priority: cl.priority})
		}
	}
	subs := make([]WALSubscription, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s.walState())
	}
	c.mu.Unlock()
	if err := wal.Compact(cells, subs); err != nil {
		c.log.Warn("wal compaction failed", "error", err)
	}
}

func terminal(s service.Status) bool {
	return s == service.StatusDone || s == service.StatusFailed || s == service.StatusCancelled
}

// walAccept / walResolve are nil-safe WAL appends; failures are logged,
// not returned (availability over durability, like the service WAL).
func (c *Coordinator) walAccept(cl *cellState) {
	if c.opts.WAL == nil {
		return
	}
	if err := c.opts.WAL.Accept(WALCell{Hash: cl.hash, Job: cl.job, Tenant: cl.tenant, Priority: cl.priority}); err != nil {
		c.log.Warn("wal append failed", "op", walOpAccept, "hash", cl.hash, "error", err)
	}
}

func (c *Coordinator) walResolve(op, hash string) {
	if c.opts.WAL == nil {
		return
	}
	if err := c.opts.WAL.Resolve(op, hash); err != nil {
		c.log.Warn("wal append failed", "op", op, "hash", hash, "error", err)
	}
}

// errTenantQuota cuts a batch at the tenant's pending cap; the HTTP layer
// maps it to the same 503 + accepted-prefix contract as a full worker
// queue.
var errTenantQuota = errors.New("coord: tenant pending quota exceeded")

// errDraining rejects intake after Close began.
var errDraining = errors.New("coord: coordinator is draining")

// Submit feeds a batch into the cluster queue for tenant at priority and
// returns the accepted-prefix views. A validation failure rejects the
// remainder with the offending index named (reason ""); hitting the
// tenant quota cuts the batch with reason service.ReasonQueueFull.
func (c *Coordinator) Submit(jobs []exp.Job, tenant string, priority int) (views []service.JobView, reason string, err error) {
	for i, j := range jobs {
		v, err := c.submitOne(j, tenant, priority, false)
		switch {
		case errors.Is(err, errTenantQuota):
			return views, service.ReasonQueueFull, fmt.Errorf("coord: tenant %q has %d cells pending (cap %d)", tenant, c.tenantPending(tenant), c.opts.MaxPendingPerTenant)
		case errors.Is(err, errDraining):
			return views, service.ReasonDraining, err
		case err != nil:
			return views, "", fmt.Errorf("coord: batch job %d (%s): %w", i, j, err)
		}
		views = append(views, v)
	}
	return views, "", nil
}

func (c *Coordinator) tenantPending(tenant string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pendingByTenant[tenant]
}

// submitOne runs the intake path for a single job: validate, dedup
// against live cells, dedup against the shared store, check the tenant
// quota (skipped on WAL replay — the depth+pending guard: yesterday's
// accepted promises must never self-reject on restart), then log the
// accept and enqueue.
func (c *Coordinator) submitOne(j exp.Job, tenant string, priority int, replay bool) (service.JobView, error) {
	if tenant == "" {
		tenant = DefaultTenant
	}
	// Canonicalize BEFORE hashing: alias spellings ("dcgwo" for "Ours")
	// must land on the same cell — and the same hash the workers will
	// report — as the canonical form.
	j, hash, err := service.CanonicalJobSpec(j)
	if err != nil {
		return service.JobView{}, err
	}

	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		return service.JobView{}, errDraining
	}
	if cl, ok := c.cells[hash]; ok && cl.status != service.StatusFailed {
		v := c.viewLocked(cl)
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()

	// Shared-store dedup before anything is scheduled: a hash any party
	// ever computed is answered immediately, cluster-wide.
	var r exp.JobResult
	if ok, err := c.opts.Store.Decode(hash, &r); err == nil && ok {
		c.mu.Lock()
		cl := c.newCellLocked(hash, j, tenant, priority)
		cl.settleLocked(service.StatusDone)
		cl.cached = true
		cl.result = &r
		v := c.viewLocked(cl)
		deliveries := c.matchSubsLocked(hash)
		c.mu.Unlock()
		c.dispatchDeliveries(deliveries, hash)
		return v, nil
	}

	c.mu.Lock()
	if !replay && c.pendingByTenant[tenant] >= c.opts.MaxPendingPerTenant {
		c.mu.Unlock()
		return service.JobView{}, errTenantQuota
	}
	cl := c.newCellLocked(hash, j, tenant, priority)
	cl.status = service.StatusQueued
	c.pendingByTenant[tenant]++
	v := c.viewLocked(cl)
	c.mu.Unlock()
	c.walAccept(cl)
	c.queue.push(cl)
	c.log.Info("cell queued", "hash", hash, "tenant", tenant, "priority", priority, "spec", j.String())
	return v, nil
}

// newCellLocked indexes a fresh cell, evicting the oldest terminal cells
// past maxCells; a failed cell being resubmitted is replaced in place.
func (c *Coordinator) newCellLocked(hash string, j exp.Job, tenant string, priority int) *cellState {
	if old, ok := c.cells[hash]; ok {
		// Only a failed cell reaches here (resubmission gets a fresh run);
		// reuse its table slot. The failure closed its done channel, so the
		// new run gets a fresh one (unless a concurrent resubmission of the
		// same hash got here first and already did).
		if terminal(old.status) {
			old.done = make(chan struct{})
		}
		old.job, old.tenant, old.priority = j, tenant, priority
		old.status, old.result, old.errMsg, old.cached = service.StatusQueued, nil, "", false
		old.lastWorker = ""
		return old
	}
	if len(c.cells) >= maxCells {
		kept := c.cellOrder[:0]
		for _, h := range c.cellOrder {
			cl := c.cells[h]
			if len(c.cells) >= maxCells && cl != nil && terminal(cl.status) {
				delete(c.cells, h)
				continue
			}
			kept = append(kept, h)
		}
		c.cellOrder = kept
	}
	cl := &cellState{hash: hash, job: j, tenant: tenant, priority: priority, done: make(chan struct{})}
	c.cells[hash] = cl
	c.cellOrder = append(c.cellOrder, hash)
	return cl
}

func (c *Coordinator) viewLocked(cl *cellState) service.JobView {
	v := service.JobView{Hash: cl.hash, Spec: cl.job, Status: cl.status, Cached: cl.cached, Error: cl.errMsg}
	if cl.result != nil {
		r := *cl.result
		v.Result = &r
	}
	return v
}

// cellDone returns the channel closed at the terminal transition of the
// cell for hash (already closed when it is terminal), or nil when the
// table has no such cell: a store-served or unknown hash is answered at
// once.
func (c *Coordinator) cellDone(hash string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cl, ok := c.cells[hash]; ok {
		return cl.done
	}
	return nil
}

// JobByHash resolves a cell by content hash: live table first, then the
// shared store — the same fallback every alsd worker serves, so a
// coordinator restarted past its cell table still answers every result
// the fleet ever persisted.
func (c *Coordinator) JobByHash(hash string) (service.JobView, bool) {
	c.mu.Lock()
	if cl, ok := c.cells[hash]; ok {
		v := c.viewLocked(cl)
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()
	var r exp.JobResult
	if ok, err := c.opts.Store.Decode(hash, &r); err == nil && ok {
		return service.JobView{Hash: hash, Status: service.StatusDone, Cached: true, Result: &r}, true
	}
	return service.JobView{}, false
}

// assign hands a dequeued cell to a worker's lane, counting a steal when
// a different worker last held it.
func (c *Coordinator) assign(w *worker, cl *cellState) *dispatch.Task {
	c.mu.Lock()
	cl.status = service.StatusRunning
	if cl.lastWorker != "" && cl.lastWorker != w.id {
		c.met.steals.Inc()
		sp := c.opts.Tracer.StartRoot("coord.steal")
		sp.SetAttr("hash", cl.hash)
		sp.SetAttr("from", cl.lastWorker)
		sp.SetAttr("to", w.id)
		sp.End()
	}
	cl.lastWorker = w.id
	c.mu.Unlock()
	return &dispatch.Task{Job: cl.job, Hash: cl.hash}
}

// completeCell publishes one finished cell: persist first (the store is
// the durable copy subscribers and restarts rely on), then flip the
// table, log the terminal record, and fan out to subscriptions.
func (c *Coordinator) completeCell(w *worker, hash string, r exp.JobResult) error {
	if err := c.opts.Store.Put(hash, r); err != nil {
		return fmt.Errorf("coord: persist %s: %w", hash, err)
	}
	c.mu.Lock()
	cl := c.cells[hash]
	var deliveries []*subscription
	if cl != nil && !terminal(cl.status) {
		cl.settleLocked(service.StatusDone)
		cl.result = &r
		c.pendingByTenant[cl.tenant]--
		deliveries = c.matchSubsLocked(hash)
	}
	if w != nil {
		w.noteCompletion()
	}
	c.mu.Unlock()
	c.walResolve(walOpDone, hash)
	c.dispatchDeliveries(deliveries, hash)
	return nil
}

// failCell records a deterministic job failure. Only that cell is
// poisoned — the cluster keeps serving other tenants and cells; clients
// polling the hash observe the failure and apply their own policy.
func (c *Coordinator) failCell(hash, errMsg string) {
	c.mu.Lock()
	cl := c.cells[hash]
	if cl != nil && !terminal(cl.status) {
		cl.settleLocked(service.StatusFailed)
		cl.errMsg = errMsg
		c.pendingByTenant[cl.tenant]--
	}
	c.mu.Unlock()
	c.walResolve(walOpFailed, hash)
	c.log.Warn("cell failed", "hash", hash, "error", errMsg)
}

// requeue returns a dead or drained lane's leftovers to the fair queue.
func (c *Coordinator) requeue(tasks []*dispatch.Task) {
	for _, t := range tasks {
		c.mu.Lock()
		cl := c.cells[t.Hash]
		if cl == nil || terminal(cl.status) {
			c.mu.Unlock()
			continue
		}
		cl.status = service.StatusQueued
		c.mu.Unlock()
		c.queue.push(cl)
	}
}

// Handler and registration/heartbeat live in http.go and registry.go;
// webhook delivery in webhook.go.

// QueueLen reports the cells currently waiting in the fair queue.
func (c *Coordinator) QueueLen() int { return c.queue.len() }

// Metrics returns the registry the coordinator instruments.
func (c *Coordinator) Metrics() *telemetry.Registry { return c.met.registry }

// Close drains the control plane: intake stops, worker lanes and delivery
// runners stop, and Close returns when they have. Queued and in-flight
// cells stay in the WAL as unresolved accepts, so the next start
// re-enqueues them.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.baseCancel()
	c.wg.Wait()
}
