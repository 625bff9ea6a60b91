// Package netlist implements the circuit representation of the paper's
// step 1: a gate-level netlist stored as gate fan-in adjacency lists.
//
// All wire information is discarded — a circuit is a slice of gates, each
// identified by a unique integer ID (its slice index) and carrying only its
// cell function, drive strength and the IDs of its fan-in gates. Local
// approximate changes are therefore O(1) edits of fan-in slices, and whole
// approximate circuits are cheap to clone for population-based search.
//
// Storage is flat: a clone or compacted copy keeps every gate's fan-in in
// one backing array, and the fan-out table is one compressed-sparse-row
// array, each gate or driver holding a window capped to its own length.
// Ownership follows two rules. A gate's fan-in window is its circuit's own:
// it may be written in place, and an append to it reallocates rather than
// spill into a neighbour. The memoized topological order, positions and
// fan-out table are immutable once published, so clones share them.
package netlist

import (
	"fmt"

	"repro/internal/cell"
)

// Gate is one node of the fan-in adjacency list. The gate's ID is its index
// in Circuit.Gates.
type Gate struct {
	// Func is the cell function (or pseudo-cell for ports/constants).
	Func cell.Func
	// Drive is the drive strength of the physical cell; ignored for
	// pseudo-cells.
	Drive cell.Drive
	// Fanin lists the IDs of the gates feeding each input pin, in pin
	// order. len(Fanin) == Func.Arity().
	Fanin []int
	// Name optionally labels the gate; ports always carry their name.
	Name string
}

// Circuit is a combinational gate-level netlist in fan-in adjacency form.
type Circuit struct {
	// Name identifies the design.
	Name string
	// Gates holds every gate; a gate's ID is its index. Gates may become
	// dangling (unreachable from any PO) after approximation; they remain
	// in the slice until Compact is called.
	Gates []Gate
	// PIs lists the IDs of Input gates in port order.
	PIs []int
	// POs lists the IDs of OutPort gates in port order.
	POs []int

	const0 int // cached Const0 gate ID, -1 if absent
	const1 int // cached Const1 gate ID, -1 if absent

	// topo and fanout memoize TopoOrder and Fanouts between structural
	// mutations; pos is the inverse of topo (gate ID → order position).
	// Every mutation routed through the Circuit API (AddGate,
	// ReplaceFanin, SetFanin, SetGate, ...) invalidates them; code that
	// writes Gates[i].Fanin directly must call Invalidate afterwards.
	// Invalidation drops the slices and never writes into them: once
	// published they are immutable, which is what lets Clone share topo
	// and pos with the original.
	topo   []int
	pos    []int
	fanout [][]int
}

// Invalidate drops the memoized topological order and fanout adjacency.
// The Circuit API calls it automatically; it is exported for callers that
// mutate Gates directly.
func (c *Circuit) Invalidate() {
	c.topo = nil
	c.pos = nil
	c.fanout = nil
}

// New returns an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name, const0: -1, const1: -1}
}

// NumGates returns the total number of gate slots (including pseudo-cells
// and dangling gates).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// NumPhysical returns the number of live physical gates, i.e. gates that
// are not pseudo-cells and reach at least one PO.
func (c *Circuit) NumPhysical() int {
	live := c.Live()
	n := 0
	for id, g := range c.Gates {
		if live[id] && !g.Func.IsPseudo() {
			n++
		}
	}
	return n
}

// AddInput appends a primary input and returns its gate ID.
func (c *Circuit) AddInput(name string) int {
	c.Invalidate()
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Func: cell.Input, Name: name})
	c.PIs = append(c.PIs, id)
	return id
}

// AddGate appends a physical gate at drive X1 and returns its ID. The
// number of fan-ins must match the function's arity; AddGate panics
// otherwise, since generator code is the only caller and a mismatch is a
// programming error.
func (c *Circuit) AddGate(f cell.Func, fanin ...int) int {
	if len(fanin) != f.Arity() {
		panic(fmt.Sprintf("netlist: %v requires %d fan-ins, got %d", f, f.Arity(), len(fanin)))
	}
	c.Invalidate()
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Func: f, Drive: cell.X1, Fanin: append([]int(nil), fanin...)})
	return id
}

// AddOutput appends a primary output driven by the given gate and returns
// the OutPort gate's ID.
func (c *Circuit) AddOutput(name string, driver int) int {
	c.Invalidate()
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{Func: cell.OutPort, Name: name, Fanin: []int{driver}})
	c.POs = append(c.POs, id)
	return id
}

// Const0 returns the ID of the shared Const0 gate, creating it on first
// use. Constants are ordinary zero-area gates, matching the paper's
// "constant '0'/'1' are also treated as gates".
func (c *Circuit) Const0() int {
	if c.const0 < 0 || c.const0 >= len(c.Gates) || c.Gates[c.const0].Func != cell.Const0 {
		c.Invalidate()
		c.const0 = len(c.Gates)
		c.Gates = append(c.Gates, Gate{Func: cell.Const0, Name: "const0"})
	}
	return c.const0
}

// ConstID returns the gate ID of the materialized constant (false = 0,
// true = 1) without creating it; ok is false when the circuit has never
// used that constant.
func (c *Circuit) ConstID(value bool) (int, bool) {
	id := c.const0
	want := cell.Const0
	if value {
		id, want = c.const1, cell.Const1
	}
	if id < 0 || id >= len(c.Gates) || c.Gates[id].Func != want {
		return -1, false
	}
	return id, true
}

// Const1 returns the ID of the shared Const1 gate, creating it on demand.
func (c *Circuit) Const1() int {
	if c.const1 < 0 || c.const1 >= len(c.Gates) || c.Gates[c.const1].Func != cell.Const1 {
		c.Invalidate()
		c.const1 = len(c.Gates)
		c.Gates = append(c.Gates, Gate{Func: cell.Const1, Name: "const1"})
	}
	return c.const1
}

// Clone returns a deep copy of the circuit — the population-cloning
// primitive of the optimizer. The clone's fan-ins live in one block of its
// own (see ownFanins), so it can be mutated independently. The memoized
// topological order and positions are shared, not copied (the clone is
// structurally identical, and neither side ever writes them); the fanout
// cache is not carried over, since clones are usually mutated immediately.
// The gate array keeps room for one more gate, so an inverted wire's
// inverter does not copy it again.
func (c *Circuit) Clone() *Circuit {
	nc := &Circuit{
		Name:   c.Name,
		Gates:  make([]Gate, len(c.Gates), len(c.Gates)+1),
		PIs:    append([]int(nil), c.PIs...),
		POs:    append([]int(nil), c.POs...),
		const0: c.const0,
		const1: c.const1,
		topo:   c.topo,
		pos:    c.pos,
	}
	copy(nc.Gates, c.Gates)
	ownFanins(nc.Gates)
	return nc
}

// ownFanins re-points every gate's fan-in at a private copy inside one
// shared block. Each gate gets a window capped to its own length
// (flat[o:o+k:o+k]), so writes stay inside the gate and an append to it
// reallocates instead of overwriting the next gate's pins. A nil or empty
// fan-in becomes nil.
func ownFanins(gates []Gate) {
	n := 0
	for i := range gates {
		n += len(gates[i].Fanin)
	}
	flat, o := make([]int, n), 0
	for i := range gates {
		k := len(gates[i].Fanin)
		if k == 0 {
			gates[i].Fanin = nil
			continue
		}
		copy(flat[o:], gates[i].Fanin)
		gates[i].Fanin = flat[o : o+k : o+k]
		o += k
	}
}

// Validate checks structural well-formedness: fan-in arities and bounds,
// port invariants, and acyclicity. It returns the first violation found.
func (c *Circuit) Validate() error {
	for id, g := range c.Gates {
		if !g.Func.Valid() {
			return fmt.Errorf("netlist %q: gate %d has invalid function", c.Name, id)
		}
		if len(g.Fanin) != g.Func.Arity() {
			return fmt.Errorf("netlist %q: gate %d (%v) has %d fan-ins, want %d",
				c.Name, id, g.Func, len(g.Fanin), g.Func.Arity())
		}
		for pin, fi := range g.Fanin {
			if fi < 0 || fi >= len(c.Gates) {
				return fmt.Errorf("netlist %q: gate %d pin %d references out-of-range gate %d",
					c.Name, id, pin, fi)
			}
			if c.Gates[fi].Func == cell.OutPort {
				return fmt.Errorf("netlist %q: gate %d pin %d driven by OutPort %d",
					c.Name, id, pin, fi)
			}
		}
	}
	for _, pi := range c.PIs {
		if pi < 0 || pi >= len(c.Gates) || c.Gates[pi].Func != cell.Input {
			return fmt.Errorf("netlist %q: PI list entry %d is not an Input gate", c.Name, pi)
		}
	}
	for _, po := range c.POs {
		if po < 0 || po >= len(c.Gates) || c.Gates[po].Func != cell.OutPort {
			return fmt.Errorf("netlist %q: PO list entry %d is not an OutPort gate", c.Name, po)
		}
	}
	if _, err := c.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological order over all gates (fan-ins before
// consumers) using Kahn's algorithm, or an error naming a gate on a
// combinational loop. This is the loop-violation check enabled by unique
// integer gate IDs (paper §III-A).
//
// The order is memoized until the next structural mutation and shared
// with clones; callers must treat the returned slice as read-only. Each
// computation builds fresh order and position slices and publishes both
// at the end, never refilling ones a clone may hold.
func (c *Circuit) TopoOrder() ([]int, error) {
	if c.topo != nil {
		return c.topo, nil
	}
	n := len(c.Gates)
	indeg := make([]int, n)
	fanouts := c.Fanouts()
	for id := range c.Gates {
		indeg[id] = len(c.Gates[id].Fanin)
	}
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for id := range c.Gates {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, id)
		for _, fo := range fanouts[id] {
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	if len(order) != n {
		for id := range c.Gates {
			if indeg[id] > 0 {
				return nil, fmt.Errorf("netlist %q: combinational loop through gate %d (%v)",
					c.Name, id, c.Gates[id].Func)
			}
		}
	}
	pos := make([]int, n)
	for i, id := range order {
		pos[id] = i
	}
	c.topo, c.pos = order, pos
	return order, nil
}

// TopoPos returns the memoized gate ID → topological position index,
// computing the order first if needed. Callers must treat the returned
// slice as read-only.
func (c *Circuit) TopoPos() ([]int, error) {
	if c.pos == nil {
		if _, err := c.TopoOrder(); err != nil {
			return nil, err
		}
	}
	return c.pos, nil
}

// Fanouts returns, for every gate, the IDs of gates that list it as a
// fan-in, in ascending consumer ID. Multiple pins of one consumer appear
// multiple times so that load computation can count each pin; a gate
// nothing reads has a nil entry.
//
// The table is one compressed-sparse-row array: each driver's entry is a
// window capped to its own length. It is memoized until the next
// structural mutation; callers must treat it as read-only.
func (c *Circuit) Fanouts() [][]int {
	if c.fanout != nil {
		return c.fanout
	}
	count := make([]int, len(c.Gates))
	total := 0
	for _, g := range c.Gates {
		for _, fi := range g.Fanin {
			count[fi]++
		}
		total += len(g.Fanin)
	}
	flat, o := make([]int, total), 0
	fo := make([][]int, len(c.Gates))
	for id, k := range count {
		if k > 0 {
			fo[id] = flat[o : o : o+k]
			o += k
		}
	}
	for id, g := range c.Gates {
		for _, fi := range g.Fanin {
			fo[fi] = append(fo[fi], id)
		}
	}
	c.fanout = fo
	return fo
}

// Live returns a mask of gates reachable (via fan-ins) from any PO — the
// complement of the paper's "dangling gates". PIs and constants count as
// live only if some PO depends on them.
func (c *Circuit) Live() []bool {
	live := make([]bool, len(c.Gates))
	stack := make([]int, 0, len(c.POs))
	for _, po := range c.POs {
		if !live[po] {
			live[po] = true
			stack = append(stack, po)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range c.Gates[id].Fanin {
			if !live[fi] {
				live[fi] = true
				stack = append(stack, fi)
			}
		}
	}
	return live
}

// TFI returns the transitive fan-in mask of the given gates (the roots are
// included).
func (c *Circuit) TFI(roots ...int) []bool {
	in := make([]bool, len(c.Gates))
	c.MarkTFI(in, nil, roots...)
	return in
}

// MarkTFI marks the transitive fan-in of roots (roots included) in in,
// which holds one entry per gate, without walking on from a fan-in
// already marked. stack is working memory, returned for reuse.
func (c *Circuit) MarkTFI(in []bool, stack []int, roots ...int) []int {
	stack = append(stack[:0], roots...)
	for _, r := range roots {
		in[r] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fi := range c.Gates[id].Fanin {
			if !in[fi] {
				in[fi] = true
				stack = append(stack, fi)
			}
		}
	}
	return stack
}

// TFO returns the transitive fan-out mask of the given gates (roots
// included). It recomputes fan-outs; callers with a fanout table should
// walk it directly.
func (c *Circuit) TFO(roots ...int) []bool {
	fanouts := c.Fanouts()
	out := make([]bool, len(c.Gates))
	stack := append([]int(nil), roots...)
	for _, r := range roots {
		out[r] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range fanouts[id] {
			if !out[fo] {
				out[fo] = true
				stack = append(stack, fo)
			}
		}
	}
	return out
}

// Area returns the total area of live physical gates — the paper's
// Areaapp: accurate-circuit area minus dangling gates.
func (c *Circuit) Area(lib *cell.Library) float64 {
	live := c.Live()
	area := 0.0
	for id, g := range c.Gates {
		if live[id] {
			area += lib.Area(g.Func, g.Drive)
		}
	}
	return area
}

// TotalArea returns the area of every physical gate including dangling
// ones (the pre-sweep silicon the netlist would occupy).
func (c *Circuit) TotalArea(lib *cell.Library) float64 {
	area := 0.0
	for _, g := range c.Gates {
		area += lib.Area(g.Func, g.Drive)
	}
	return area
}

// Compact returns a copy with all dangling gates removed and IDs
// renumbered densely, plus the old→new ID mapping (-1 for removed gates).
// This implements the paper's "dangling gates deletion": gates with empty
// transitive fan-out are identified and removed transitively. Primary
// inputs are part of the module interface and are always kept, even when
// no live logic reads them. Like Clone, the copy keeps its fan-ins in one
// block of its own.
func (c *Circuit) Compact() (*Circuit, []int) {
	live := c.Live()
	remap := make([]int, len(c.Gates))
	nc := New(c.Name)
	nc.Gates = make([]Gate, 0, len(c.Gates))
	for id := range c.Gates {
		if !live[id] && c.Gates[id].Func != cell.Input {
			remap[id] = -1
			continue
		}
		remap[id] = len(nc.Gates)
		nc.Gates = append(nc.Gates, c.Gates[id])
	}
	ownFanins(nc.Gates)
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
	return nc, remap
}

// ReplaceFanin rewires every live consumer of target to read from switch
// instead — the fundamental LAC edit. It returns the number of pins
// rewired. The caller is responsible for loop safety (switch must not be
// in target's TFO).
//
// The memoized topological order survives the rewire when the switch
// precedes every rewired consumer in it (always true for LACs, whose
// switch gates come from the target's transitive fan-in or the
// constants); otherwise the caches are invalidated.
func (c *Circuit) ReplaceFanin(target, sw int) int {
	n := 0
	orderOK := c.pos != nil && sw >= 0 && sw < len(c.pos)
	for id := range c.Gates {
		for pin, fi := range c.Gates[id].Fanin {
			if fi == target {
				c.Gates[id].Fanin[pin] = sw
				n++
				if orderOK && c.pos[sw] >= c.pos[id] {
					orderOK = false
				}
			}
		}
	}
	if n > 0 {
		if orderOK {
			// The order is still valid, but the fanout table is not.
			c.fanout = nil
		} else {
			c.Invalidate()
		}
	}
	return n
}

// SetFanin rewires one pin of one gate and invalidates the memoized
// topology. It is the cache-safe form of writing Gates[id].Fanin[pin]
// directly; like ReplaceFanin, loop safety is the caller's concern (use
// Validate or TopoOrder to check).
func (c *Circuit) SetFanin(id, pin, src int) {
	c.Gates[id].Fanin[pin] = src
	c.Invalidate()
}

// SetGate overwrites a gate's function, drive and fan-in adjacency and
// invalidates the memoized topology — the per-gate adjacency write of
// circuit reproduction. The fan-in is deep copied: into the gate's own
// window when it already holds a non-empty fan-in of the same arity,
// otherwise into a fresh slice (nil when empty). Loop safety is the
// caller's concern.
func (c *Circuit) SetGate(id int, g Gate) {
	if dst := c.Gates[id].Fanin; len(dst) > 0 && len(dst) == len(g.Fanin) {
		copy(dst, g.Fanin)
		g.Fanin = dst
	} else {
		g.Fanin = append([]int(nil), g.Fanin...)
	}
	c.Gates[id] = g
	c.Invalidate()
}

// DiffGates returns the IDs of gates whose function or fan-in adjacency
// differs from the same-ID gate of ref, in ascending ID order; gates
// beyond ref's range are always reported. Drive strength and names are
// ignored — the diff describes what simulation sees, so a candidate
// produced by LACs on a clone of ref reports exactly the gates its LACs
// rewired. This is the changed-set feed of incremental re-simulation.
func (c *Circuit) DiffGates(ref *Circuit) []int {
	var out []int
	n := len(ref.Gates)
	for id := range c.Gates {
		if id >= n {
			out = append(out, id)
			continue
		}
		g, r := &c.Gates[id], &ref.Gates[id]
		if g.Func != r.Func || len(g.Fanin) != len(r.Fanin) {
			out = append(out, id)
			continue
		}
		for pin, fi := range g.Fanin {
			if fi != r.Fanin[pin] {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// PINames returns the primary input names in port order.
func (c *Circuit) PINames() []string {
	names := make([]string, len(c.PIs))
	for i, pi := range c.PIs {
		names[i] = c.Gates[pi].Name
	}
	return names
}

// PONames returns the primary output names in port order.
func (c *Circuit) PONames() []string {
	names := make([]string, len(c.POs))
	for i, po := range c.POs {
		names[i] = c.Gates[po].Name
	}
	return names
}

// Stats summarizes a circuit for reporting (TABLE I).
type Stats struct {
	Name  string
	Gates int // live physical gates
	PIs   int
	POs   int
	Area  float64
}

// Summarize computes the TABLE I statistics of the circuit.
func (c *Circuit) Summarize(lib *cell.Library) Stats {
	return Stats{
		Name:  c.Name,
		Gates: c.NumPhysical(),
		PIs:   len(c.PIs),
		POs:   len(c.POs),
		Area:  c.Area(lib),
	}
}
