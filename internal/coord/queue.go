// The cluster work queue: weighted-fair across tenants, priority-ordered
// within one. Every registered worker's lane pulls from this one queue,
// so placement follows observed throughput (a fast worker simply comes
// back for more sooner) and an idle lane naturally steals cells another
// worker had to hand back. None of this affects results: a cell is a
// pure function of its content hash, so scheduling only decides who
// computes what first.
package coord

import (
	"context"
	"sync"

	"repro/internal/telemetry"
)

// fairQueue dequeues cells weighted-fair across tenants: the tenant ring
// is served round-robin, each tenant taking up to its weight of
// consecutive cells per turn, and within a tenant the highest priority
// goes first (FIFO among equals). Starvation-free by construction: a
// tenant with queued work is at most one ring revolution away from its
// next turn no matter how much higher-priority work other tenants hold.
type fairQueue struct {
	mu      sync.Mutex
	tenants map[string]*tenantQueue
	ring    []string // tenant round-robin order (grows, never shrinks)
	cursor  int
	credit  int // cells left in the current tenant's turn
	weights map[string]int
	depth   *telemetry.GaugeVec // als_cluster_queue_depth by tenant; may be nil
	// signal wakes one blocked pop per push; a successful pop re-signals
	// while items remain, so concurrent lanes drain without thundering.
	signal chan struct{}
}

type tenantQueue struct {
	// items stays sorted: priority descending, FIFO within a priority
	// (push inserts after the last equal-priority cell).
	items []*cellState
}

func newFairQueue(weights map[string]int, depth *telemetry.GaugeVec) *fairQueue {
	return &fairQueue{
		tenants: map[string]*tenantQueue{},
		weights: weights,
		depth:   depth,
		signal:  make(chan struct{}, 1),
	}
}

func (q *fairQueue) weightOf(tenant string) int {
	if w, ok := q.weights[tenant]; ok && w > 0 {
		return w
	}
	return 1
}

// push enqueues one cell and wakes a waiting lane.
func (q *fairQueue) push(c *cellState) {
	q.mu.Lock()
	tq := q.tenants[c.tenant]
	if tq == nil {
		tq = &tenantQueue{}
		q.tenants[c.tenant] = tq
		q.ring = append(q.ring, c.tenant)
	}
	i := len(tq.items)
	for i > 0 && tq.items[i-1].priority < c.priority {
		i--
	}
	tq.items = append(tq.items, nil)
	copy(tq.items[i+1:], tq.items[i:])
	tq.items[i] = c
	if q.depth != nil {
		q.depth.With(c.tenant).Inc()
	}
	q.mu.Unlock()
	q.wake()
}

func (q *fairQueue) wake() {
	select {
	case q.signal <- struct{}{}:
	default:
	}
}

// popLocked runs one weighted-round-robin step; nil when nothing is
// queued anywhere.
func (q *fairQueue) popLocked() *cellState {
	n := len(q.ring)
	if n == 0 {
		return nil
	}
	// One extra step lets an exhausted-credit turn advance before the
	// full-ring scan starts.
	for scanned := 0; scanned <= n; scanned++ {
		t := q.ring[q.cursor%n]
		tq := q.tenants[t]
		if q.credit > 0 && len(tq.items) > 0 {
			c := tq.items[0]
			tq.items = tq.items[1:]
			q.credit--
			if q.credit == 0 || len(tq.items) == 0 {
				q.advanceLocked()
			}
			if q.depth != nil {
				q.depth.With(c.tenant).Dec()
			}
			return c
		}
		q.advanceLocked()
	}
	return nil
}

func (q *fairQueue) advanceLocked() {
	q.cursor = (q.cursor + 1) % len(q.ring)
	q.credit = q.weightOf(q.ring[q.cursor])
}

// tryPop dequeues without blocking.
func (q *fairQueue) tryPop() (*cellState, bool) {
	q.mu.Lock()
	c := q.popLocked()
	q.mu.Unlock()
	if c == nil {
		return nil, false
	}
	return c, true
}

// pop blocks until a cell is available or ctx ends.
func (q *fairQueue) pop(ctx context.Context) (*cellState, bool) {
	for {
		q.mu.Lock()
		c := q.popLocked()
		more := false
		if c != nil {
			for _, tq := range q.tenants {
				if len(tq.items) > 0 {
					more = true
					break
				}
			}
		}
		q.mu.Unlock()
		if c != nil {
			if more {
				q.wake() // pass the signal on to the next waiting lane
			}
			return c, true
		}
		select {
		case <-q.signal:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// len reports the total queued cells across tenants.
func (q *fairQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, tq := range q.tenants {
		n += len(tq.items)
	}
	return n
}
