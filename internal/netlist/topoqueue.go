package netlist

import "math/bits"

// TopoQueue is the worklist of a fanout-cone walk: a pending set of gates
// that pops them in ascending topological position, so every gate is
// finalized after all of its fan-ins. Incremental simulation and
// incremental timing both walk their cones through it.
//
// It is a bitset over topological positions. Pushing a pending gate again
// is a no-op, and Pop scans forward from the lowest pending word. A cone
// walk pushes only the fanouts of the gate it just popped, which sit later
// in the order, so the scan only ever moves forward and a popped gate is
// never queued again. The queue allocates nothing after construction and
// is not safe for concurrent use.
type TopoQueue struct {
	order []int    // topological position → gate ID
	pos   []int    // gate ID → topological position
	bits  []uint64 // pending positions
	lo    int      // no pending position lies below word lo
	n     int      // pending gates
}

// NewTopoQueue returns an empty queue over the circuit's current
// topological order. The circuit's structure must not change while the
// queue is in use; drive changes are fine.
func (c *Circuit) NewTopoQueue() (*TopoQueue, error) {
	order, err := c.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &TopoQueue{order: order, pos: c.pos, bits: make([]uint64, (len(order)+63)/64)}, nil
}

// Push adds gate id to the pending set.
func (q *TopoQueue) Push(id int) {
	p := q.pos[id]
	w, b := p>>6, uint64(1)<<(p&63)
	if q.bits[w]&b != 0 {
		return
	}
	q.bits[w] |= b
	if q.n == 0 || w < q.lo {
		q.lo = w
	}
	q.n++
}

// Pop removes and returns the pending gate earliest in topological order;
// ok is false when the queue is empty.
func (q *TopoQueue) Pop() (id int, ok bool) {
	if q.n == 0 {
		return -1, false
	}
	for q.bits[q.lo] == 0 {
		q.lo++
	}
	b := bits.TrailingZeros64(q.bits[q.lo])
	q.bits[q.lo] &^= 1 << b
	q.n--
	return q.order[q.lo<<6|b], true
}

// Reset empties the queue, e.g. after a walk that stopped early.
func (q *TopoQueue) Reset() {
	if q.n > 0 {
		clear(q.bits[q.lo:])
		q.n = 0
	}
}
