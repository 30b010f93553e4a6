package ifc

import (
	"sync"
	"sync/atomic"

	"lciot/internal/telemetry"
)

// Flow-check caching. CheckFlow is on the hot path of every message
// delivery and every channel (re-)evaluation, so its decisions are cached
// in a small, bounded, lock-free direct-mapped table keyed by the interned
// label keys of the two contexts. Because labels are hash-consed, a key
// tuple identifies the exact tag sets involved, so a cached entry can never
// be applied to the wrong contexts.
//
// The table is generation-stamped: InvalidateFlowCache bumps the global
// generation, instantly retiring every cached decision. The pure flow rule
// itself never changes, but the layers above cache *derived* decisions
// (entity transition authorisations, gate routes, bus channel legality)
// whose validity ends when privileges are granted or revoked or gates are
// installed or removed — the control planes in sbus/core call
// InvalidateFlowCache on those events so every stamped cache in the process
// turns over together.

// flowKey identifies an ordered pair of security contexts by interned label
// keys (secrecy, integrity, jurisdiction and purpose of src, then of dst).
type flowKey struct {
	ss, si, sj, sp uint64
	ds, di, dj, dp uint64
}

// flowEntry is one cached decision. Entries are immutable once published.
type flowEntry struct {
	key flowKey
	gen uint64
	d   FlowDecision
}

// flowTableSize bounds the decision cache; must be a power of two.
const flowTableSize = 1024

var (
	flowTable [flowTableSize]atomic.Pointer[flowEntry]
	flowGen   atomic.Uint64
)

// contextKey builds the cache key for a src→dst check.
func contextKey(src, dst SecurityContext) flowKey {
	return flowKey{
		ss: src.Secrecy.key(), si: src.Integrity.key(),
		sj: src.Jurisdiction.key(), sp: src.Purpose.key(),
		ds: dst.Secrecy.key(), di: dst.Integrity.key(),
		dj: dst.Jurisdiction.key(), dp: dst.Purpose.key(),
	}
}

// slot hashes the key into the direct-mapped table. The facet keys are
// folded in with their own multipliers; facet-free contexts contribute
// zeros, so their distribution is unchanged.
func (k flowKey) slot() *atomic.Pointer[flowEntry] {
	h := k.ss*0x9e3779b97f4a7c15 ^ k.si*0xc2b2ae3d27d4eb4f ^
		k.ds*0x165667b19e3779f9 ^ k.di*0x27d4eb2f165667c5 ^
		k.sj*0x85ebca77c2b2ae63 ^ k.sp*0xff51afd7ed558ccd ^
		k.dj*0xc4ceb9fe1a85ec53 ^ k.dp*0x2545f4914f6cdd1d
	h ^= h >> 29
	return &flowTable[h&(flowTableSize-1)]
}

// FlowCacheGeneration returns the current flow-cache generation, advancing
// whenever InvalidateFlowCache is called. Layers that maintain their own
// stamped caches may observe it to expire entries in lockstep.
func FlowCacheGeneration() uint64 { return flowGen.Load() }

// InvalidateFlowCache retires every cached flow decision in the process by
// advancing the generation. Control planes call it whenever privileges or
// gates change, so that any decision derived from the old configuration is
// re-evaluated.
func InvalidateFlowCache() { flowGen.Add(1) }

// A GateRegistry holds the gates installed in one enforcement domain and
// answers (cached) routability queries: whether data can move between two
// security contexts either directly under the flow rule or through one
// installed gate. Installing or removing a gate invalidates the route cache
// (its generation advances), so a previously cached deny becomes
// re-derivable as an allow the moment a bridging gate appears.
//
// The zero value is ready to use.
type GateRegistry struct {
	mu     sync.RWMutex
	gates  map[string]*Gate
	gen    uint64
	routes map[flowKey]routeEntry
}

// routeEntry is one cached routability decision.
type routeEntry struct {
	gen uint64
	via string
	ok  bool
}

// maxRouteCache bounds the per-registry route cache.
const maxRouteCache = 1024

// Install adds a gate under its name, replacing any previous gate with the
// same name, and invalidates cached routes (both the registry's own route
// cache and, via InvalidateFlowCache, every stamped cache in the process).
func (r *GateRegistry) Install(g *Gate) {
	r.mu.Lock()
	if r.gates == nil {
		r.gates = make(map[string]*Gate)
	}
	r.gates[g.Name] = g
	r.gen++
	r.mu.Unlock()
	InvalidateFlowCache()
}

// Remove deletes a gate by name, reporting whether it existed, and
// invalidates cached routes.
func (r *GateRegistry) Remove(name string) bool {
	r.mu.Lock()
	_, ok := r.gates[name]
	if ok {
		delete(r.gates, name)
		r.gen++
	}
	r.mu.Unlock()
	if ok {
		InvalidateFlowCache()
	}
	return ok
}

// Gate returns an installed gate by name.
func (r *GateRegistry) Gate(name string) (*Gate, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	g, ok := r.gates[name]
	return g, ok
}

// Route reports whether data may move from src to dst: directly under the
// flow rule (via == "", ok == true) or through a single installed gate
// (via == the gate's name). Decisions are cached per context pair and
// invalidated when gates change.
func (r *GateRegistry) Route(src, dst SecurityContext) (via string, ok bool) {
	k := contextKey(src, dst)
	r.mu.RLock()
	e, hit := r.routes[k]
	gen := r.gen
	r.mu.RUnlock()
	if hit && e.gen == gen {
		return e.via, e.ok
	}

	via, ok = "", src.CanFlowTo(dst)
	if !ok {
		r.mu.RLock()
		for name, g := range r.gates {
			if src.CanFlowTo(g.Input) && g.Output.CanFlowTo(dst) {
				// Prefer the lexically smallest bridging gate so the
				// decision is deterministic across map iteration orders.
				if !ok || name < via {
					via, ok = name, true
				}
			}
		}
		r.mu.RUnlock()
	}

	r.mu.Lock()
	if r.gen == gen { // don't cache a decision derived from a stale gate set
		if r.routes == nil {
			r.routes = make(map[flowKey]routeEntry)
		}
		if len(r.routes) >= maxRouteCache {
			clear(r.routes)
		}
		r.routes[k] = routeEntry{gen: gen, via: via, ok: ok}
	}
	r.mu.Unlock()
	return via, ok
}

// Flow-cache effectiveness counters. A cold or churning cache (context
// changes bump the generation, invalidating every entry) shows up as a
// rising miss rate long before it shows up as delivery latency. Gated:
// one atomic load each while telemetry is disabled.
var (
	flowCacheHits   = telemetry.NewCounter("ifc_flowcache_hits_total")
	flowCacheMisses = telemetry.NewCounter("ifc_flowcache_misses_total")
)
