package sim

import (
	"encoding/binary"
	"fmt"

	"repro/internal/cell"
	"repro/internal/netlist"
)

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

// OverlayRun simulates the base circuit with only the unit gates' content
// replaced by the candidate's — the single-change (or single-component)
// cone evaluation behind cross-candidate reuse. It behaves exactly like
// IncrementalRun(app, unit) would if unit were the candidate's complete
// changed set: propagation starts at the unit gates, reads every other
// gate's content from the base circuit (so changes outside the unit do not
// leak into the unit's delta), and prunes the moment a recomputed waveform
// matches the golden one.
//
// The returned Result is owned by the Simulator and valid until its next
// call; SignalDiffers afterwards reports exactly the gates whose waveform
// the unit changed. The caller must ensure the candidate shares the base
// gate ID space and that every unit gate's fan-ins precede it in the base
// topological order (the same validity condition IncrementalRun checks);
// OverlayRun returns an error instead of falling back, since a fallback
// full run of the hybrid overlay circuit is never meaningful.
func (s *Simulator) OverlayRun(app *netlist.Circuit, unit []int) (*Result, error) {
	if len(app.Gates) != len(s.base.Gates) || len(app.PIs) != len(s.base.PIs) {
		return nil, fmt.Errorf("sim: overlay candidate %q does not share the base gate ID space", app.Name)
	}
	for _, id := range unit {
		for _, fi := range app.Gates[id].Fanin {
			if s.pos[fi] >= s.pos[id] {
				return nil, fmt.Errorf("sim: overlay unit gate %d breaks the base topological order", id)
			}
		}
	}
	s.reset(len(app.Gates))
	copy(s.res.Signals, s.golden.Signals)
	for _, id := range unit {
		s.queue.Push(id)
	}
	arenaNext := 0
	for {
		id, ok := s.queue.Pop()
		if !ok {
			break
		}
		g := &s.base.Gates[id]
		for _, u := range unit { // units are tiny; a linear scan beats a map
			if u == id {
				g = &app.Gates[id]
				break
			}
		}
		if g.Func == cell.Input {
			continue // PIs always carry the shared input sample
		}
		sig := s.slot(arenaNext)
		if err := evalGate(g, s.res.Signals, sig, s.tail); err != nil {
			return nil, fmt.Errorf("sim: gate %d: %w", id, err)
		}
		gold := s.golden.Signals[id]
		if wordsEqual(sig, gold) {
			s.res.Signals[id] = gold
			continue
		}
		s.differ(id, sig)
		arenaNext++
	}
	return &s.res, nil
}
