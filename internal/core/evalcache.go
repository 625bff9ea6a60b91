// Generation-scoped cross-candidate evaluation reuse.
//
// Population optimizers evaluate many near-identical candidates per
// generation: elitism and converged searches repeat whole candidates. The
// whole-candidate memo exploits that without ever changing results: the
// candidate's complete diff against the accurate circuit — every gate
// whose function, fan-in adjacency or drive differs, canonically encoded
// by sim.AppendGateSig — keys a finished evaluation. Equal keys imply
// equal gate content (the key is the content, not a hash), so a hit
// replays the exact Individual a fresh evaluation would produce. A miss
// takes the plain incremental path on the same diff.
//
// The cache is generation-scoped: BeginGeneration drops all entries (the
// optimizer loops call it once per generation/round), bounding memory to
// one generation's working set; a byte cap additionally stops inserts in
// degenerate cases. A miss claims its key until its evaluation ends, so
// identical candidates evaluated at once are evaluated once: the others
// wait and hit. A generation's misses are then its distinct change sets,
// whatever the scheduling. Counters are cumulative across generations and
// are surfaced through CacheStats, core.Result and the session EventDone
// stats.
package core

import (
	"sync"
	"sync/atomic"

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
// pipeline worker of one Evaluator. Entries are immutable after
// insertion; the map is guarded by one mutex, the counters are atomics so
// workers never contend on them.
type evalCache struct {
	mu    sync.Mutex
	memo  map[string]*flight
	bytes int

	lookups, hits, fallbacks, generations atomic.Int64
}

// flight is one key's evaluation: t is set, before done is released,
// when the evaluation succeeded and was inserted.
type flight struct {
	t    *evalTemplate
	done sync.WaitGroup
}

func newEvalCache() *evalCache {
	return &evalCache{memo: make(map[string]*flight)}
}

// reset starts a new generation: all entries are dropped, counters keep
// accumulating.
func (c *evalCache) reset() {
	c.mu.Lock()
	c.memo = make(map[string]*flight)
	c.bytes = 0
	c.mu.Unlock()
	c.generations.Add(1)
}

// get returns the key's template, waiting while another evaluation of
// the key is in flight. On a miss it returns the flight it claimed for
// the key, which the caller must end with put, or nil when the byte cap
// stops inserts and the caller evaluates unclaimed. The []byte key avoids
// a string allocation on the hit path.
func (c *evalCache) get(key []byte) (*evalTemplate, *flight) {
	c.mu.Lock()
	for {
		f := c.memo[string(key)]
		switch {
		case f == nil && c.bytes >= evalCacheMaxBytes:
			c.mu.Unlock()
			return nil, nil
		case f == nil:
			f = &flight{}
			f.done.Add(1)
			c.memo[string(key)] = f
			c.mu.Unlock()
			return nil, f
		case f.t != nil:
			c.mu.Unlock()
			return f.t, nil
		}
		// In flight: wait for its owner. One that inserted nothing (it
		// failed, or hit the cap) has dropped the entry, so look again.
		c.mu.Unlock()
		f.done.Wait()
		c.mu.Lock()
	}
}

// put ends the flight claimed for key: it inserts t, or, for a failed
// evaluation (nil t) or at the byte cap, drops the claim, and releases
// the waiters.
func (c *evalCache) put(key []byte, f *flight, t *evalTemplate) {
	c.mu.Lock()
	if c.memo[string(key)] == f {
		if t != nil && c.bytes < evalCacheMaxBytes {
			f.t = t
			c.bytes += t.memBytes(len(key))
		} else {
			delete(c.memo, string(key))
		}
	}
	c.mu.Unlock()
	f.done.Done()
}

// stats snapshots the cumulative counters.
func (c *evalCache) stats() CacheStats {
	return CacheStats{
		Lookups:     c.lookups.Load(),
		Hits:        c.hits.Load(),
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
// incrementally simulated: a different gate ID space, mismatched port
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
