// Generation-scoped cross-candidate evaluation reuse.
//
// Population optimizers evaluate many near-identical candidates per
// generation: children share their parent's accumulated LACs, elitism and
// converged searches repeat whole candidates, and independent changes
// touch disjoint fanout cones. The evaluation cache exploits all three
// without ever changing results:
//
//   - L1 (whole-candidate memo): the candidate's complete diff against the
//     accurate circuit — every gate whose function, fan-in adjacency or
//     drive differs, canonically encoded by sim.AppendGateSig — keys a
//     finished evaluation. Equal keys imply equal gate content (the key is
//     the content, not a hash), so a hit replays the exact Individual a
//     fresh evaluation would produce.
//   - L2 (per-change cone deltas): the changed gates are partitioned into
//     components whose static fanout cones overlap. When two or more
//     components are pairwise disjoint, each component's PO-level error
//     delta (errest.PODelta, computed by an overlay cone simulation) is
//     cached under the component's content key and the candidate's metrics
//     are recombined exactly (errest.ComposeMetrics) — skipping both the
//     simulation and the dominant touched-PO metric scan. Overlapping
//     changes merge into one component; a single component falls back to
//     the plain incremental path, so overlap costs nothing extra.
//
// Disjointness is decided on static transitive fanout masks of the base
// circuit (computed once per root gate and kept for the Evaluator's
// lifetime): the dynamic recomputed cone of a change is always a subset of
// its static cone, so statically disjoint components can never interact —
// the proof obligation behind bit-identical composition.
//
// The cache is generation-scoped: BeginGeneration drops all entries (the
// optimizer loops call it once per generation/round), bounding memory to
// one generation's working set; a byte cap additionally stops inserts in
// degenerate cases. Counters are cumulative across generations and are
// surfaced through CacheStats, core.Result and the session EventDone
// stats.
package core

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/errest"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// CacheStats reports the evaluation cache's cumulative effectiveness
// counters for one Evaluator (and therefore one optimization run). A
// greedy round's candidates, evaluated against the round's parent (see
// EvaluateRound), skip the cache: they are neither lookups nor fallbacks.
type CacheStats struct {
	// Lookups counts cache-eligible candidate evaluations; Hits counts the
	// ones answered entirely from the whole-candidate memo.
	Lookups, Hits int64
	// UnitHits and UnitMisses count per-change cone-delta lookups on the
	// composition path.
	UnitHits, UnitMisses int64
	// Composed counts candidates whose metrics were recombined from
	// disjoint per-change deltas instead of a fresh incremental simulation.
	Composed int64
	// Fallbacks counts evaluations that bypassed the cache entirely
	// (candidates outside the base gate ID space, rewires breaking the
	// base or round parent's topological order, or a disabled cache).
	// They are the only evaluations timed by a full STA.
	Fallbacks int64
	// Generations counts BeginGeneration calls (cache resets).
	Generations int64
}

// HitRatio returns Hits/Lookups, or 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// evalTemplate is the circuit-independent part of one evaluated
// Individual: everything except the candidate pointer itself. Instances
// are immutable once inserted; instantiate copies the slices so cached
// state can never alias a caller's Individual.
type evalTemplate struct {
	fit, delay     float64
	depth          int
	area, errValue float64
	perPO          []float64
	poArrival      []float64
}

func templateOf(ind *Individual) *evalTemplate {
	return &evalTemplate{
		fit:       ind.Fit,
		delay:     ind.Delay,
		depth:     ind.Depth,
		area:      ind.Area,
		errValue:  ind.Err,
		perPO:     ind.PerPO,
		poArrival: ind.POArrival,
	}
}

func (t *evalTemplate) instantiate(c *netlist.Circuit) *Individual {
	return &Individual{
		Circuit:   c,
		Fit:       t.fit,
		Delay:     t.delay,
		Depth:     t.depth,
		Area:      t.area,
		Err:       t.errValue,
		PerPO:     append([]float64(nil), t.perPO...),
		POArrival: append([]float64(nil), t.poArrival...),
	}
}

func (t *evalTemplate) memBytes(keyLen int) int {
	return keyLen + 16*(len(t.perPO)+len(t.poArrival)) + 96
}

// evalCacheMaxBytes caps one generation's cached state. One generation of
// a realistic population is far below this; the cap only guards degenerate
// configurations (huge populations on huge circuits), where inserts stop
// and evaluation continues uncached.
const evalCacheMaxBytes = 64 << 20

// evalCache is the concurrent, generation-scoped store shared by every
// EvaluateBatch worker of one Evaluator. Entries are immutable after
// insertion; the maps are guarded by one RWMutex (lookups vastly outnumber
// inserts), the counters are atomics so workers never contend on them.
type evalCache struct {
	mu    sync.RWMutex
	l1    map[string]*evalTemplate
	units map[string]*errest.PODelta
	bytes int

	lookups, hits, unitHits, unitMisses, composed, fallbacks, generations atomic.Int64
}

func newEvalCache() *evalCache {
	return &evalCache{
		l1:    make(map[string]*evalTemplate),
		units: make(map[string]*errest.PODelta),
	}
}

// reset starts a new generation: all entries are dropped, counters keep
// accumulating.
func (c *evalCache) reset() {
	c.mu.Lock()
	c.l1 = make(map[string]*evalTemplate)
	c.units = make(map[string]*errest.PODelta)
	c.bytes = 0
	c.mu.Unlock()
	c.generations.Add(1)
}

// getL1 looks up a whole-candidate template. The []byte key avoids a
// string allocation on the (common) lookup path.
func (c *evalCache) getL1(key []byte) *evalTemplate {
	c.mu.RLock()
	t := c.l1[string(key)]
	c.mu.RUnlock()
	return t
}

func (c *evalCache) putL1(key []byte, t *evalTemplate) {
	c.mu.Lock()
	if c.bytes < evalCacheMaxBytes {
		if _, dup := c.l1[string(key)]; !dup {
			c.l1[string(key)] = t
			c.bytes += t.memBytes(len(key))
		}
	}
	c.mu.Unlock()
}

func (c *evalCache) getUnit(key []byte) *errest.PODelta {
	c.mu.RLock()
	d := c.units[string(key)]
	c.mu.RUnlock()
	return d
}

func (c *evalCache) putUnit(key []byte, d *errest.PODelta) {
	c.mu.Lock()
	if c.bytes < evalCacheMaxBytes {
		if _, dup := c.units[string(key)]; !dup {
			c.units[string(key)] = d
			c.bytes += d.MemBytes() + len(key)
		}
	}
	c.mu.Unlock()
}

// stats snapshots the cumulative counters.
func (c *evalCache) stats() CacheStats {
	return CacheStats{
		Lookups:     c.lookups.Load(),
		Hits:        c.hits.Load(),
		UnitHits:    c.unitHits.Load(),
		UnitMisses:  c.unitMisses.Load(),
		Composed:    c.composed.Load(),
		Fallbacks:   c.fallbacks.Load(),
		Generations: c.generations.Load(),
	}
}

// candidateDiff scans the candidate against the base circuit once,
// producing (a) the change set — every gate whose function, fan-in
// adjacency or drive differs, ascending — and (b) the whole-candidate cache
// key covering it (drive never affects simulation but does affect timing
// and area, so it must distinguish keys). Simulation takes the change set
// as it is: a drive-only gate re-simulates to its golden waveform and
// prunes at once. ok is false when the candidate cannot be cached or
// incrementally overlaid: a different gate ID space, mismatched port
// lists, or a rewire that broke the base topological order (LACs never do;
// a circuit holding greedy inverted-wire substitutions, whose inverters
// are appended gates, lands here).
func (e *Evaluator) candidateDiff(c *netlist.Circuit, key []byte) (changed []int, outKey []byte, ok bool) {
	if len(c.Gates) != len(e.base.Gates) ||
		!equalInts(c.PIs, e.base.PIs) || !equalInts(c.POs, e.base.POs) {
		return nil, key, false
	}
	for id := range c.Gates {
		g, r := &c.Gates[id], &e.base.Gates[id]
		if !sameLogic(g, r) {
			for _, fi := range g.Fanin {
				if e.pos[fi] >= e.pos[id] {
					return nil, key, false
				}
			}
		} else if g.Drive == r.Drive {
			continue
		}
		changed = append(changed, id)
		key = sim.AppendGateSig(key, id, g)
	}
	return changed, key, true
}

// sameLogic reports whether two same-ID gates are simulation-equivalent
// (function and fan-in adjacency; drive and name excluded) — the per-gate
// predicate of netlist.DiffGates.
func sameLogic(g, r *netlist.Gate) bool {
	if g.Func != r.Func || len(g.Fanin) != len(r.Fanin) {
		return false
	}
	for pin, fi := range g.Fanin {
		if fi != r.Fanin[pin] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// reachMask returns the static transitive-fanout bitset of one base gate
// (root included), memoized for the Evaluator's lifetime — the masks
// depend only on the accurate circuit's structure, never on candidates.
func (e *Evaluator) reachMask(root int) []uint64 {
	e.reachMu.Lock()
	defer e.reachMu.Unlock()
	if m, ok := e.reach[root]; ok {
		return m
	}
	mask := make([]uint64, (len(e.base.Gates)+63)/64)
	stack := e.reachScratch[:0]
	stack = append(stack, root)
	mask[root>>6] |= 1 << (root & 63)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, fo := range e.fanouts[id] {
			if mask[fo>>6]>>(uint(fo)&63)&1 == 0 {
				mask[fo>>6] |= 1 << (uint(fo) & 63)
				stack = append(stack, fo)
			}
		}
	}
	e.reachScratch = stack[:0]
	e.reach[root] = mask
	return mask
}

func masksOverlap(a, b []uint64) bool {
	for w := range a {
		if a[w]&b[w] != 0 {
			return true
		}
	}
	return false
}

// partitionChanged groups the changed gates into components whose static
// fanout cones overlap. Components are returned with ascending members in
// a deterministic order; two components' dynamic recomputed cones can
// never intersect (each is a subset of its static union), which is what
// makes per-component deltas exactly composable.
func (e *Evaluator) partitionChanged(changed []int) [][]int {
	type group struct {
		members []int
		mask    []uint64
	}
	var groups []*group
	for _, id := range changed {
		m := e.reachMask(id)
		var into *group
		kept := groups[:0]
		for _, g := range groups {
			if !masksOverlap(g.mask, m) {
				kept = append(kept, g)
				continue
			}
			if into == nil {
				into = g
				kept = append(kept, g)
				continue
			}
			// The new gate bridges two groups: merge them.
			into.members = append(into.members, g.members...)
			orInto(into.mask, g.mask)
		}
		groups = kept
		if into == nil {
			into = &group{mask: append([]uint64(nil), m...)}
			groups = append(groups, into)
		} else {
			orInto(into.mask, m)
		}
		into.members = append(into.members, id)
	}
	out := make([][]int, len(groups))
	for i, g := range groups {
		sort.Ints(g.members)
		out[i] = g.members
	}
	return out
}

func orInto(dst, src []uint64) {
	for w := range dst {
		dst[w] |= src[w]
	}
}
