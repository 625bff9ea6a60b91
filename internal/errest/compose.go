// Delta composition: per-change PO-level error deltas and their exact
// recombination into whole-candidate metrics.
//
// A PODelta captures everything one localized change contributes to the
// error metrics: which POs its cone touched, their approximate waveforms,
// and the precomputed ER/NMED partial sums. When a multi-change
// candidate's changes have provably disjoint fanout cones, each PO is
// touched by at most one change, so the candidate's metrics are
// recombined from the per-change deltas without re-simulating or
// re-scanning anything:
//
//   - PerPO scatters directly (PO sets are disjoint).
//   - ER counts the popcount of the OR of the per-delta any-diff masks.
//   - NMED sums the per-delta error-distance sums, then corrects the
//     vectors where two or more deltas fire at once: the combined error
//     distance is |Σ d_u|, not Σ |d_u|.
//
// All quantities involved are integers below 2^53 whenever ComposeOK
// reports true, so the recombined metrics are bit-identical to
// MetricsDelta on a full incremental simulation of the candidate — the
// invariant the evaluation cache's exactness tests pin down. In ER-only
// mode no error distance is summed or corrected, and NMED stays 0: ER and
// PerPO are counts, exact at any width, so ER-only estimators compose at
// any PO count and sample size.
package errest

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// PODelta is the PO-level error delta of one localized change (or one
// merged component of overlapping changes), extracted from an overlay
// simulation. It is immutable after construction and safe to share across
// evaluation workers.
type PODelta struct {
	// planes holds the touched POs — those whose waveform the change
	// altered — in ascending order, each with its own copy of the
	// approximate waveform (one row per plane, backed by a single array).
	planes []plane
	// counts holds, per plane, the number of differing vectors.
	counts []int
	// anyDiff is the word-wise OR of the planes' differences: set bits
	// mark vectors where this change flips at least one PO.
	anyDiff []uint64
	// erCount is the popcount of anyDiff.
	erCount int
	// sumED is the sum over vectors of |Vori - Vapp| restricted to the
	// touched POs — an exact integer below 2^53 when ComposeOK holds; 0
	// in ER-only mode.
	sumED int64
}

// MemBytes approximates the delta's memory footprint for cache accounting.
func (d *PODelta) MemBytes() int {
	return 8*(len(d.planes)+1)*len(d.anyDiff) + 16*len(d.planes) + 64
}

// ComposeOK reports whether per-change deltas can be recombined exactly:
// every per-vector error distance and every partial sum must be an integer
// that float64 represents exactly. Beyond 53 POs a single error distance
// already rounds; beyond n·(2^nPO-1) ≥ 2^53 the accumulated sum could
// round differently than the full scan's accumulation order. In ER-only
// mode no distance is summed, and ER and PerPO are popcounts, so it is
// always true. Callers fall back to full incremental simulation when this
// is false.
func (e *Estimator) ComposeOK() bool {
	const maxExact = float64(1 << 53)
	return e.erOnly || e.nPO <= 53 && float64(e.vectors.N)*e.norm < maxExact
}

// ExtractPODelta builds the PO-level delta of one overlay simulation:
// res must come from (*sim.Simulator).OverlayRun (or IncrementalRun) of a
// single change unit, touched must be the simulator's SignalDiffers, and
// the caller must have checked ComposeOK. The returned delta owns its
// storage — it stays valid after the simulator arena is reused. In
// ER-only mode its error-distance sum is left at 0.
func (e *Estimator) ExtractPODelta(app *netlist.Circuit, res *sim.Result, touched func(gateID int) bool) (*PODelta, error) {
	if len(app.POs) != e.nPO {
		return nil, fmt.Errorf("errest: circuit %q has %d POs, accurate has %d", app.Name, len(app.POs), e.nPO)
	}
	d := &PODelta{planes: e.touchedPlanes(app, res, touched)}
	if len(d.planes) == 0 {
		return d, nil // the change simplified away: bit-identical outputs
	}
	words := e.vectors.Words()
	backing := make([]uint64, (len(d.planes)+1)*words)
	d.anyDiff = backing[len(d.planes)*words:]
	d.counts = make([]int, len(d.planes))
	for j := range d.planes {
		p := &d.planes[j]
		row := backing[j*words : (j+1)*words]
		copy(row, p.app)
		p.app = row
		for w, a := range p.app {
			x := a ^ p.gold[w]
			d.anyDiff[w] |= x
			d.counts[j] += bits.OnesCount64(x)
		}
	}
	for w, diff := range d.anyDiff {
		if diff != 0 {
			d.erCount += bits.OnesCount64(diff)
			if !e.erOnly {
				d.sumED += distance(d.planes, w, ^uint64(0))
			}
		}
	}
	return d, nil
}

// ComposeMetrics recombines the metrics of a candidate whose changes have
// pairwise-disjoint fanout cones from their cached per-change deltas. The
// units must touch pairwise-disjoint PO sets (guaranteed by cone
// disjointness) and the caller must have checked ComposeOK; the result is
// then bit-identical to MetricsDelta on a full incremental simulation of
// the candidate. In ER-only mode it skips the collision lanes' distances
// and NMED is 0.
func ComposeMetrics(e *Estimator, units []*PODelta) Metrics {
	n := e.vectors.N
	perPO := make([]float64, e.nPO)
	m := Metrics{PerPO: perPO}
	var total int64
	union := make([]plane, 0, e.nPO) // every unit's planes, in ascending PO order
	for _, u := range units {
		for j, p := range u.planes {
			perPO[p.pos] = float64(u.counts[j]) / float64(n)
		}
		total += u.sumED
		union = append(union, u.planes...)
	}
	slices.SortFunc(union, func(a, b plane) int { return cmp.Compare(a.pos, b.pos) })
	erCount := 0
	for w := 0; w < e.vectors.Words(); w++ {
		var cum, coll uint64
		for _, u := range units {
			if u.anyDiff == nil {
				continue
			}
			x := u.anyDiff[w]
			coll |= cum & x
			cum |= x
		}
		erCount += bits.OnesCount64(cum)
		if coll == 0 || e.erOnly {
			continue
		}
		// Vectors where two or more units fire: the combined error
		// distance is |Σ d_u| over the union of their disjoint PO sets,
		// so replace the independently summed Σ |d_u| on those lanes.
		total += distance(union, w, coll)
		for _, u := range units {
			if u.anyDiff != nil && u.anyDiff[w]&coll != 0 {
				total -= distance(u.planes, w, coll)
			}
		}
	}
	m.ER = float64(erCount) / float64(n)
	m.NMED = float64(total) / e.norm / float64(n)
	return m
}
