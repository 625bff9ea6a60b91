package netlist

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cell"
)

// The ownership oracle of the flat storage. Clone and Compact keep every
// fan-in in one block per circuit, Fanouts is one CSR array, and clones
// share the memoized order; the references below restate each result with
// per-gate slices, and FuzzCloneOwnership interleaves mutations of circuits
// derived from one base to show that no circuit ever sees another's write.

// deepCopy copies every field of c, the memoized caches included, into
// slices of its own (one per gate and per driver), keeping nil-ness.
func deepCopy(c *Circuit) *Circuit {
	d := &Circuit{Name: c.Name, PIs: slices.Clone(c.PIs), POs: slices.Clone(c.POs), const0: c.const0,
		const1: c.const1, topo: slices.Clone(c.topo), pos: slices.Clone(c.pos), Gates: make([]Gate, len(c.Gates))}
	for i, g := range c.Gates {
		g.Fanin = slices.Clone(g.Fanin)
		d.Gates[i] = g
	}
	if c.fanout != nil {
		d.fanout = make([][]int, len(c.fanout))
		for i, fo := range c.fanout {
			d.fanout[i] = slices.Clone(fo)
		}
	}
	return d
}

// diffInts compares two int slices, nil-ness included.
func diffInts(what string, got, want []int) error {
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		return fmt.Errorf("%s = %v (nil %v), want %v (nil %v)", what, got, got == nil, want, want == nil)
	}
	return nil
}

// diffFanouts compares two fan-out tables, nil-ness of the table and of
// every entry included.
func diffFanouts(got, want [][]int) error {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Errorf("fan-out table has %d entries (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for id := range got {
		if err := diffInts(fmt.Sprintf("fan-outs of gate %d", id), got[id], want[id]); err != nil {
			return err
		}
	}
	return nil
}

// diffCircuit describes the first difference between c and want; with
// caches it also compares the memoized order, positions and fan-outs.
func diffCircuit(c, want *Circuit, caches bool) error {
	if c.Name != want.Name || c.const0 != want.const0 || c.const1 != want.const1 {
		return fmt.Errorf("header %q/%d/%d, want %q/%d/%d", c.Name, c.const0, c.const1, want.Name, want.const0, want.const1)
	}
	if err := diffInts("PIs", c.PIs, want.PIs); err != nil {
		return err
	}
	if err := diffInts("POs", c.POs, want.POs); err != nil {
		return err
	}
	if len(c.Gates) != len(want.Gates) {
		return fmt.Errorf("%d gates, want %d", len(c.Gates), len(want.Gates))
	}
	for id, g := range c.Gates {
		w := want.Gates[id]
		if g.Func != w.Func || g.Drive != w.Drive || g.Name != w.Name {
			return fmt.Errorf("gate %d is %v/%v/%q, want %v/%v/%q", id, g.Func, g.Drive, g.Name, w.Func, w.Drive, w.Name)
		}
		if err := diffInts(fmt.Sprintf("gate %d fan-in", id), g.Fanin, w.Fanin); err != nil {
			return err
		}
	}
	if !caches {
		return nil
	}
	if err := diffInts("memoized order", c.topo, want.topo); err != nil {
		return err
	}
	if err := diffInts("memoized positions", c.pos, want.pos); err != nil {
		return err
	}
	if c.fanout == nil && want.fanout == nil {
		return nil
	}
	return diffFanouts(c.fanout, want.fanout)
}

// referenceFanouts is the fan-out table built one slice per driver.
func referenceFanouts(c *Circuit) [][]int {
	fo := make([][]int, len(c.Gates))
	for id, g := range c.Gates {
		for _, fi := range g.Fanin {
			fo[fi] = append(fo[fi], id)
		}
	}
	return fo
}

// referenceTFO is the transitive fan-out mask of id, walked over
// referenceFanouts so no cache of c is read or published.
func referenceTFO(c *Circuit, id int) []bool {
	fo := referenceFanouts(c)
	out := make([]bool, len(c.Gates))
	out[id] = true
	for stack := []int{id}; len(stack) > 0; {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, o := range fo[g] {
			if !out[o] {
				out[o] = true
				stack = append(stack, o)
			}
		}
	}
	return out
}

// referenceCompact is Compact built one fan-in slice per gate.
func referenceCompact(c *Circuit) *Circuit {
	live := c.Live()
	remap := make([]int, len(c.Gates))
	nc := New(c.Name)
	for id, g := range c.Gates {
		if !live[id] && g.Func != cell.Input {
			remap[id] = -1
			continue
		}
		remap[id] = len(nc.Gates)
		g.Fanin = append([]int(nil), g.Fanin...) // nil when empty, as Compact
		nc.Gates = append(nc.Gates, g)
	}
	for i := range nc.Gates {
		for pin, fi := range nc.Gates[i].Fanin {
			nc.Gates[i].Fanin[pin] = remap[fi]
		}
	}
	for _, pi := range c.PIs {
		nc.PIs = append(nc.PIs, remap[pi])
	}
	for _, po := range c.POs {
		nc.POs = append(nc.POs, remap[po])
	}
	if c.const0 >= 0 && remap[c.const0] >= 0 {
		nc.const0 = remap[c.const0]
	}
	if c.const1 >= 0 && remap[c.const1] >= 0 {
		nc.const1 = remap[c.const1]
	}
	return nc
}

// keptOrder restates ReplaceFanin's cache rule on a snapshot taken before
// the rewire: the memoized order survives when the switch precedes every
// rewired consumer in it, or when nothing is rewired. It returns the order
// the circuit must still hold, or nil when it must recompute.
func keptOrder(before *Circuit, target, sw int) []int {
	if before.pos == nil {
		return nil
	}
	for id, g := range before.Gates {
		for _, fi := range g.Fanin {
			if fi == target && (sw < 0 || sw >= len(before.pos) || before.pos[sw] >= before.pos[id]) {
				return nil
			}
		}
	}
	return before.topo
}

// checkQueries checks c's Fanouts against the per-driver reference, and
// its TopoOrder and TopoPos against the order recomputed on a cache-free
// deep copy — or against kept, the order c is entitled to still hold.
func checkQueries(c *Circuit, kept []int) error {
	if err := diffFanouts(c.Fanouts(), referenceFanouts(c)); err != nil {
		return err
	}
	order, err := c.TopoOrder()
	if err != nil {
		return err
	}
	want := kept
	if want == nil {
		fresh := deepCopy(c)
		fresh.Invalidate()
		if want, err = fresh.TopoOrder(); err != nil {
			return err
		}
	}
	if err := diffInts("TopoOrder", order, want); err != nil {
		return err
	}
	pos, err := c.TopoPos()
	if err != nil {
		return err
	}
	if len(pos) != len(order) {
		return fmt.Errorf("TopoPos has %d entries, order %d", len(pos), len(order))
	}
	for i, id := range order {
		if pos[id] != i {
			return fmt.Errorf("TopoPos[%d] = %d, want %d", id, pos[id], i)
		}
	}
	return nil
}

// ownershipReader hands out the fuzz bytes as choices; an exhausted input
// reads as zeros.
type ownershipReader []byte

func (r *ownershipReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// pick returns a choice in [0, n) from two bytes, so circuits of
// thousands of gates are reachable.
func (r *ownershipReader) pick(n int) int { return (r.next()<<8 | r.next()) % n }

// The operations of an ownership run, one per step.
const (
	opClone = iota
	opReplaceFanin
	opSetFanin
	opSetGateSame
	opSetGateOther
	opSetGateDonor
	opAddGate
	opCompact
	opAppend
	opTopoOrder
	opTopoPos
	opFanouts
	numOps
)

var opNames = [numOps]string{"Clone", "ReplaceFanin", "SetFanin", "SetGate (same arity)",
	"SetGate (other arity)", "SetGate (donor fan-in)", "AddGate", "Compact", "append",
	"TopoOrder", "TopoPos", "Fanouts"}

// physicalFuncs lists the physical cell functions, the choices of the
// gate-writing operations.
var physicalFuncs = func() (fs []cell.Func) {
	for f := range cell.NumFuncs {
		if !f.IsPseudo() {
			fs = append(fs, f)
		}
	}
	return fs
}()

// Bounds of one ownership run.
const (
	ownershipPool  = 8
	ownershipSteps = 64
)

// runOwnership replays the operations data chooses over a pool of
// circuits that starts with base. Each circuit has a model: a deep copy
// the same edit is replayed on with per-gate slices. After every step each
// circuit equals its model, every circuit but the stepped one equals its
// snapshot from before the step, caches included, and the stepped circuit
// passes checkQueries. Edits keep every circuit acyclic: a new fan-in
// never comes from the written gate's transitive fan-out.
func runOwnership(base *Circuit, data []byte) error {
	r := ownershipReader(data)
	pool, models := []*Circuit{base}, []*Circuit{deepCopy(base)}
	if err := checkQueries(base, nil); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	for step := 0; step < ownershipSteps && len(r) > 0; step++ {
		op, s := r.next()%numOps, r.pick(len(pool))
		before := make([]*Circuit, len(pool))
		for i, c := range pool {
			before[i] = deepCopy(c)
		}
		c, m := pool[s], models[s]
		// source draws a driver for gate id (any gate when id < 0): never
		// an OutPort, never in id's transitive fan-out.
		source := func(id int) int {
			var tfo []bool
			if id >= 0 {
				tfo = referenceTFO(m, id)
			}
			for range len(m.Gates) {
				src := r.pick(len(m.Gates))
				if m.Gates[src].Func != cell.OutPort && (tfo == nil || !tfo[src]) {
					return src
				}
			}
			return -1
		}
		sources := func(id, k int) []int {
			fanin := make([]int, k)
			for pin := range fanin {
				if fanin[pin] = source(id); fanin[pin] < 0 {
					return nil
				}
			}
			return fanin
		}
		gate := func(ok func(Gate) bool) int {
			for range len(m.Gates) {
				if id := r.pick(len(m.Gates)); ok(m.Gates[id]) {
					return id
				}
			}
			return -1
		}
		physical := func(g Gate) bool { return !g.Func.IsPseudo() }
		// kept is the order the stepped circuit must hold afterwards; an
		// operation that invalidates sets it nil (recompute) once it runs.
		kept := before[s].topo
		switch op {
		case opClone, opCompact:
			if len(pool) == ownershipPool {
				op = opTopoOrder
				break
			}
			if op == opClone {
				pool, models = append(pool, c.Clone()), append(models, deepCopy(m))
			} else {
				nc, _ := c.Compact()
				pool, models = append(pool, nc), append(models, referenceCompact(m))
				kept = nil
			}
			s = len(pool) - 1
		case opReplaceFanin:
			target := gate(func(g Gate) bool { return g.Func != cell.OutPort })
			if target < 0 {
				break
			}
			sw := source(target)
			if r.next()&1 == 0 { // a LAC: a switch from the target's TFI
				tfi := m.TFI(target)
				sw = gate(func(g Gate) bool { return g.Func != cell.OutPort })
				if sw >= 0 && (!tfi[sw] || sw == target) {
					sw, _ = m.ConstID(false) // -1 once Compact dropped it
				}
			}
			if sw < 0 {
				break
			}
			c.ReplaceFanin(target, sw)
			for id := range m.Gates {
				for pin, fi := range m.Gates[id].Fanin {
					if fi == target {
						m.Gates[id].Fanin[pin] = sw
					}
				}
			}
			kept = keptOrder(before[s], target, sw)
		case opSetFanin:
			id := gate(func(g Gate) bool { return len(g.Fanin) > 0 })
			if id < 0 {
				break
			}
			pin := r.pick(len(m.Gates[id].Fanin))
			if src := source(id); src >= 0 {
				c.SetFanin(id, pin, src)
				m.Gates[id].Fanin[pin] = src
				kept = nil
			}
		case opSetGateSame, opSetGateOther, opSetGateDonor:
			id := gate(physical)
			if id < 0 {
				break
			}
			g := m.Gates[id]
			f := physicalFuncs[r.pick(len(physicalFuncs))]
			for (f.Arity() == g.Func.Arity()) != (op == opSetGateSame) {
				f = physicalFuncs[(slices.Index(physicalFuncs, f)+1)%len(physicalFuncs)]
			}
			fanin := sources(id, f.Arity())
			if op == opSetGateDonor { // another circuit's own window, as reproduce passes
				d := pool[r.pick(len(pool))]
				if id >= len(d.Gates) || !physical(d.Gates[id]) {
					break
				}
				f, fanin = d.Gates[id].Func, d.Gates[id].Fanin
				tfo := referenceTFO(m, id)
				for _, fi := range fanin {
					if fi >= len(m.Gates) || tfo[fi] || m.Gates[fi].Func == cell.OutPort {
						fanin = nil
					}
				}
			}
			if fanin == nil {
				break
			}
			ng := Gate{Func: f, Drive: cell.Drive(r.pick(int(cell.NumDrives))), Fanin: fanin, Name: g.Name}
			c.SetGate(id, ng)
			ng.Fanin = append([]int(nil), fanin...)
			m.Gates[id] = ng
			kept = nil
			if op != opSetGateDonor {
				for pin := range fanin { // SetGate must have copied the argument
					fanin[pin] = -1
				}
			}
		case opAddGate:
			f := physicalFuncs[r.pick(len(physicalFuncs))]
			if fanin := sources(-1, f.Arity()); fanin != nil {
				c.AddGate(f, fanin...)
				m.Gates = append(m.Gates, Gate{Func: f, Drive: cell.X1, Fanin: fanin})
				kept = nil
			}
		case opAppend:
			// Grow one gate's fan-in in place, then restore it; a window
			// without its capacity clip would hand the extra pin to the
			// next gate.
			id := gate(func(g Gate) bool { return len(g.Fanin) > 0 })
			if id < 0 {
				break
			}
			k := len(c.Gates[id].Fanin)
			c.Gates[id].Fanin = append(c.Gates[id].Fanin, -1)[:k]
			c.Invalidate()
			kept = nil
		}
		switch op {
		case opTopoOrder:
			c.TopoOrder()
		case opTopoPos:
			c.TopoPos()
		case opFanouts:
			c.Fanouts()
		}
		where := func(i int) string {
			return fmt.Sprintf("step %d (%s on circuit %d): circuit %d", step, opNames[op], s, i)
		}
		if err := checkQueries(pool[s], kept); err != nil {
			return fmt.Errorf("%s: %w", where(s), err)
		}
		for i, c := range pool {
			if err := diffCircuit(c, models[i], false); err != nil {
				return fmt.Errorf("%s: %w", where(i), err)
			}
			if i != s && i < len(before) {
				if err := diffCircuit(c, before[i], true); err != nil {
					return fmt.Errorf("%s changed: %w", where(i), err)
				}
			}
		}
	}
	return nil
}

// ownershipBase is a small circuit with gates of every arity and both
// constants materialized.
func ownershipBase() *Circuit {
	c := New("own")
	a, b, s := c.AddInput("a"), c.AddInput("b"), c.AddInput("s")
	x := c.AddGate(cell.Nand2, a, b)
	y := c.AddGate(cell.Inv, x)
	m := c.AddGate(cell.Mux2, a, y, s)
	j := c.AddGate(cell.Maj3, x, m, b)
	o := c.AddGate(cell.Xor2, j, y)
	c.AddOutput("p", o)
	c.AddOutput("q", m)
	c.Const0()
	c.Const1()
	return c
}

// FuzzCloneOwnership runs runOwnership over ownershipBase: the fuzz bytes
// choose the operations (Clone, ReplaceFanin, SetFanin, SetGate of the
// same or another arity or with another circuit's fan-in, AddGate,
// Compact, an append to one gate's fan-in) and the queries (TopoOrder,
// TopoPos, Fanouts) between them.
func FuzzCloneOwnership(f *testing.F) {
	f.Add([]byte{opClone, 0, 0, opReplaceFanin, 0, 1, 0, 7, 0, 0, opSetGateSame, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runOwnership(ownershipBase(), data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCloneSharesOrderAndFlattensFanins(t *testing.T) {
	c := ownershipBase()
	order, err := c.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	if &cl.topo[0] != &order[0] || &cl.pos[0] != &c.pos[0] {
		t.Error("a clone must share the memoized order and positions")
	}
	if cl.fanout != nil {
		t.Error("a clone must not carry the fan-out table over")
	}
	for id, g := range cl.Gates {
		if len(g.Fanin) == 0 {
			if g.Fanin != nil {
				t.Errorf("gate %d: an empty fan-in must clone to nil", id)
			}
			continue
		}
		if cap(g.Fanin) != len(g.Fanin) {
			t.Errorf("gate %d: fan-in window cap %d, want its length %d", id, cap(g.Fanin), len(g.Fanin))
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { c.Clone() }); allocs > 5 {
		t.Errorf("Clone made %v allocations, want at most 5 whatever the gate count", allocs)
	}
}

func TestSetGateWritesSameArityInPlace(t *testing.T) {
	c := ownershipBase().Clone()
	id := slices.IndexFunc(c.Gates, func(g Gate) bool { return g.Func == cell.Maj3 })
	w, fanin := c.Gates[id].Fanin, []int{0, 1, 2}
	if allocs := testing.AllocsPerRun(10, func() { c.SetGate(id, Gate{Func: cell.Mux2, Fanin: fanin}) }); allocs != 0 {
		t.Errorf("same-arity SetGate made %v allocations, want 0", allocs)
	}
	if &c.Gates[id].Fanin[0] != &w[0] {
		t.Error("same-arity SetGate must write into the gate's own window")
	}
	c.SetGate(id, Gate{Func: cell.And2, Fanin: []int{0, 1}})
	if &c.Gates[id].Fanin[0] == &w[0] || len(c.Gates[id].Fanin) != 2 {
		t.Error("other-arity SetGate must allocate a fresh fan-in")
	}
	if c.SetGate(id, Gate{Func: cell.Const0, Fanin: []int{}}); c.Gates[id].Fanin != nil {
		t.Error("SetGate must store an empty fan-in as nil")
	}
}
