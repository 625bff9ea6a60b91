package sim

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/cell"
	"repro/internal/netlist"
)

// Simulator is a reusable incremental simulation engine bound to one
// reference ("golden") circuit and one shared vector sample. It exploits
// the structure of approximate-logic-synthesis workloads: every candidate
// circuit is the reference plus a handful of local approximate changes, so
// only the transitive fanout cone of the changed gates can carry a
// different waveform. IncrementalRun recomputes exactly that cone against
// the cached golden waveforms — in topological order, pruning propagation
// the moment a recomputed signal turns out bit-identical to the cached one
// — and returns a Result that is exact, bit-for-bit, with a full Run of
// the candidate.
//
// All working memory (the signal arena, the propagation worklist, the
// dirty-tracking state) is preallocated and recycled across calls, so the
// steady-state hot loop performs no per-gate allocation. The returned
// Result is owned by the Simulator and only valid until the next call; a
// Simulator is not safe for concurrent use — use one per worker.
type Simulator struct {
	base    *netlist.Circuit
	vectors *Vectors
	golden  *Result
	pos     []int   // gate ID → position in the base topological order
	fanouts [][]int // base fanout adjacency (read-only, from the circuit)
	words   int
	tail    uint64

	res        Result             // reusable result; signals reset from golden
	arena      [][]uint64         // recycled signal buffers, one per recomputed gate
	differs    []bool             // gate signal differs from golden (last run)
	dirty      []int              // gates with differs set, for O(cone) reset
	queue      *netlist.TopoQueue // pending gates of the cone walk
	allTouched bool               // full-run fallback: every signal counts as touched
}

// NewSimulator builds a Simulator for candidates derived from the base
// circuit on the given vectors. golden may be a previously computed full
// simulation of base on v (it is trusted, not recomputed); pass nil to
// have the constructor run it.
func NewSimulator(base *netlist.Circuit, v *Vectors, golden *Result) (*Simulator, error) {
	s := &Simulator{vectors: v, words: v.Words(), tail: TailMask(v.N)}
	if err := s.Rebase(base, golden); err != nil {
		return nil, err
	}
	return s, nil
}

// Rebase binds the simulator to another base circuit and its full
// simulation on the simulator's vectors, as NewSimulator would, keeping
// the working memory it has grown. base's structure must not change
// while the simulator serves it.
func (s *Simulator) Rebase(base *netlist.Circuit, golden *Result) error {
	if golden == nil {
		var err error
		if golden, err = Run(base, s.vectors); err != nil {
			return err
		}
	}
	if golden.N != s.vectors.N || len(golden.Signals) != len(base.Gates) {
		return fmt.Errorf("sim: golden result does not match base circuit %q", base.Name)
	}
	pos, err := base.TopoPos()
	if err != nil {
		return err
	}
	queue, err := base.NewTopoQueue()
	if err != nil {
		return err
	}
	for _, id := range s.dirty {
		s.differs[id] = false
	}
	s.dirty = s.dirty[:0]
	// Every differs entry is false between runs, past its length too.
	n := len(base.Gates)
	s.base, s.golden, s.pos, s.fanouts, s.queue = base, golden, pos, base.Fanouts(), queue
	s.differs = slices.Grow(s.differs[:0], n)[:n]
	s.reset(n)
	return nil
}

// Golden returns the cached full simulation of the base circuit.
func (s *Simulator) Golden() *Result { return s.golden }

// Vectors returns the shared input sample.
func (s *Simulator) Vectors() *Vectors { return s.vectors }

// SignalDiffers reports whether, in the most recent run, gate id's
// waveform differs from the golden one. A gate appended beyond the base
// has no golden waveform and always reports true; after a full-run
// fallback every gate conservatively does.
func (s *Simulator) SignalDiffers(id int) bool {
	return s.allTouched || id >= len(s.differs) || s.differs[id]
}

// Simulate diffs the candidate against the base circuit and runs the
// incremental engine. The returned Result is owned by the Simulator and
// valid only until its next call.
func (s *Simulator) Simulate(app *netlist.Circuit) (*Result, error) {
	return s.IncrementalRun(app, app.DiffGates(s.base))
}

// SimulateWithin is Simulate for a reader that looks only at the gates in
// within, a fan-in-closed set of the candidate's gate IDs such as
// netlist.Circuit.TFI returns (cone-of-influence reduction): only changed
// gates inside the set seed the walk, and only fan-outs inside it are
// queued. Every gate in the set gets its exact waveform and SignalDiffers;
// a base gate outside it keeps the golden waveform and reports no
// difference. A fallback to FullRun is exact everywhere.
func (s *Simulator) SimulateWithin(app *netlist.Circuit, within []bool) (*Result, error) {
	return s.run(app, app.DiffGates(s.base), within)
}

// IncrementalRun simulates a candidate that shares the base circuit's gate
// ID space, given the IDs of the gates whose function or fan-in adjacency
// differs from the base (see netlist.DiffGates). The candidate may also
// append gates, such as an inverted wire's inverter, that read only base
// gates ahead of every changed one: their waveforms are computed from the
// golden ones first. Other candidates — a different PI list, an appended
// gate reading a changed or appended one, or a rewire that broke the base
// topological order, which LACs never do — fall back to FullRun
// transparently. The returned Result is exact and owned by the Simulator
// (valid until the next call).
func (s *Simulator) IncrementalRun(app *netlist.Circuit, changed []int) (*Result, error) {
	return s.run(app, changed, nil)
}

// run is IncrementalRun restricted to within (nil: every gate); see
// SimulateWithin.
func (s *Simulator) run(app *netlist.Circuit, changed []int, within []bool) (*Result, error) {
	nb := len(s.base.Gates)
	if len(app.Gates) < nb || len(app.PIs) != len(s.base.PIs) {
		return s.FullRun(app)
	}
	// The base order stays valid iff every changed gate still reads only
	// gates that precede it, an appended gate counting as right after its
	// fan-ins; unchanged gates kept their base fan-ins.
	first := nb // the earliest changed gate's position
	for _, id := range changed {
		if id >= nb {
			continue
		}
		first = min(first, s.pos[id])
		for _, fi := range app.Gates[id].Fanin {
			if fi < nb && s.pos[fi] >= s.pos[id] {
				return s.FullRun(app)
			}
		}
	}
	for _, g := range app.Gates[nb:] {
		for _, fi := range g.Fanin {
			if fi >= nb || s.pos[fi] >= first {
				return s.FullRun(app)
			}
		}
	}
	s.reset(len(app.Gates))
	copy(s.res.Signals, s.golden.Signals)
	arenaNext := 0
	for id := nb; id < len(app.Gates); id++ {
		sig := s.slot(arenaNext)
		arenaNext++
		if err := evalGate(&app.Gates[id], s.res.Signals, sig, s.tail); err != nil {
			return nil, fmt.Errorf("sim: gate %d: %w", id, err)
		}
		s.res.Signals[id] = sig
	}
	for _, id := range changed {
		if id < nb && (within == nil || within[id]) {
			s.queue.Push(id)
		}
	}
	for {
		id, ok := s.queue.Pop()
		if !ok {
			break
		}
		g := &app.Gates[id]
		if g.Func == cell.Input {
			continue // PIs always carry the shared input sample
		}
		sig := s.slot(arenaNext)
		if err := evalGate(g, s.res.Signals, sig, s.tail); err != nil {
			return nil, fmt.Errorf("sim: gate %d: %w", id, err)
		}
		gold := s.golden.Signals[id]
		if wordsEqual(sig, gold) {
			// Bit-identical to the cached waveform: keep sharing the
			// golden signal, recycle the arena slot, and prune the cone —
			// nothing downstream of this gate can change through it.
			s.res.Signals[id] = gold
			continue
		}
		s.differ(id, sig, within)
		arenaNext++
	}
	return &s.res, nil
}

// FullRun simulates the candidate from scratch into the recycled arena —
// the fallback for candidates the base order cannot serve (see
// IncrementalRun). The returned Result is owned by the Simulator; every
// gate reports SignalDiffers.
func (s *Simulator) FullRun(app *netlist.Circuit) (*Result, error) {
	if len(app.PIs) != len(s.vectors.PerPI) {
		return nil, fmt.Errorf("sim: circuit %q has %d PIs, vectors have %d",
			app.Name, len(app.PIs), len(s.vectors.PerPI))
	}
	order, err := app.TopoOrder()
	if err != nil {
		return nil, err
	}
	s.reset(len(app.Gates))
	s.allTouched = true
	for i, pi := range app.PIs {
		s.res.Signals[pi] = s.vectors.PerPI[i]
	}
	arenaNext := 0
	for _, id := range order {
		g := &app.Gates[id]
		if g.Func == cell.Input {
			continue
		}
		sig := s.slot(arenaNext)
		arenaNext++
		if err := evalGate(g, s.res.Signals, sig, s.tail); err != nil {
			return nil, fmt.Errorf("sim: gate %d: %w", id, err)
		}
		s.res.Signals[id] = sig
	}
	return &s.res, nil
}

// reset prepares the recycled buffers for a run over n gates, clearing
// only the state touched by the previous run.
func (s *Simulator) reset(n int) {
	s.allTouched = false
	for _, id := range s.dirty {
		s.differs[id] = false
	}
	s.dirty = s.dirty[:0]
	s.queue.Reset()
	s.res.Signals = slices.Grow(s.res.Signals[:0], n)[:n]
	s.res.N = s.vectors.N
}

// slot returns the k-th recycled signal buffer, allocating it on first
// use. Buffers persist for the Simulator's lifetime, so the steady state
// allocates nothing.
func (s *Simulator) slot(k int) []uint64 {
	for k >= len(s.arena) {
		s.arena = append(s.arena, make([]uint64, s.words))
	}
	return s.arena[k]
}

// differ records that gate id's recomputed waveform sig differs from the
// golden one and queues the gate's fanouts inside within (nil: all).
func (s *Simulator) differ(id int, sig []uint64, within []bool) {
	s.res.Signals[id] = sig
	s.differs[id] = true
	s.dirty = append(s.dirty, id)
	for _, fo := range s.fanouts[id] {
		if within == nil || within[fo] {
			s.queue.Push(fo)
		}
	}
}

func wordsEqual(a, b []uint64) bool {
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// AppendGateSig appends a canonical, collision-free encoding of one gate's
// evaluation-relevant content — ID, function, drive strength and fan-in
// adjacency — to dst and returns the extended slice. Names are excluded
// (they never affect simulation, timing or area). Two gates append the
// same bytes iff they are behaviorally interchangeable at the same ID, so
// concatenated signatures of a candidate's changed gates form an exact
// memoization key for cross-candidate evaluation reuse: unlike a 64-bit
// hash, equal keys imply equal content, never merely probable equality.
func AppendGateSig(dst []byte, id int, g *netlist.Gate) []byte {
	dst = binary.AppendUvarint(dst, uint64(id))
	dst = append(dst, byte(g.Func), byte(g.Drive))
	dst = binary.AppendUvarint(dst, uint64(len(g.Fanin)))
	for _, fi := range g.Fanin {
		dst = binary.AppendUvarint(dst, uint64(fi))
	}
	return dst
}
