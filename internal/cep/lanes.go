package cep

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/lanehash"
	"lciot/internal/telemetry"
)

// A SourceAffine is a Pattern that declares the event sources (component
// names) it subscribes to. The ShardedEngine uses the declaration to home
// the pattern on one dispatch lane: when every declared source hashes to
// the same lane, the pattern lives there and only that lane's lock is
// ever taken to feed it. Patterns without a declaration — or whose
// sources span lanes (cross-shard correlations) — land in the broadcast
// set and see every event.
//
// Declaring sources is a contract, exactly like TypedPattern's type
// declaration: OnEvent must ignore events whose Source is outside the
// declaration (the built-in patterns enforce this themselves), so
// partitioned delivery is observably identical to feeding every pattern.
type SourceAffine interface {
	Pattern
	// EventSources lists the sources the pattern subscribes to; empty
	// means every source.
	EventSources() []string
}

// laneIdxFor maps an event source to a dispatch lane by the shared
// FNV-1a placement hash (internal/lanehash) — the same function the bus
// uses for components, so a component's events are detected on the lane
// whose bus shard delivers them: the shard dispatcher that invokes a
// sink handler feeds the very lane that owns the sink's patterns, and
// never blocks on another shard's detection state.
func laneIdxFor(source string, n int) int {
	return lanehash.Index(source, n)
}

// A lane is one dispatch lane: the patterns homed on it, indexed by event
// type, behind the lane's own lock. feed, advance and purge run under the
// lock and return what they produced, so the ShardedEngine delivers
// detections after releasing it.
type lane struct {
	mu sync.Mutex
	// patterns holds every pattern on the lane in registration order;
	// advance and purge iterate it so tick delivery is deterministic.
	patterns []Pattern
	byType   map[string][]indexed
	catchAll []indexed
	// npat counts registered patterns; Feed skips the broadcast lane's
	// lock entirely while the broadcast set is empty.
	npat atomic.Int32
	// evals counts events fed to this lane (lifetime), one uncontended
	// atomic add per feed — the lane-load signal skew reports roll up.
	evals atomic.Uint64
}

// An indexed is one registered pattern plus its registration sequence
// number, which fixes delivery order when merging index buckets.
type indexed struct {
	seq int
	p   Pattern
}

// register adds a pattern. Patterns implementing TypedPattern with a
// non-empty declaration are indexed under each declared type; all others
// see every event.
func (ln *lane) register(p Pattern) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	ln.npat.Add(1)
	entry := indexed{seq: len(ln.patterns), p: p}
	ln.patterns = append(ln.patterns, p)
	if tp, ok := p.(TypedPattern); ok {
		if types := tp.EventTypes(); len(types) > 0 {
			for i, t := range types {
				if slices.Contains(types[:i], t) {
					continue // a duplicate declaration must not double-deliver
				}
				ln.byType[t] = append(ln.byType[t], entry)
			}
			return
		}
	}
	ln.catchAll = append(ln.catchAll, entry)
}

// cepFeedHist times a lane feed inside the lane lock — the per-event cost
// of complex event processing (zero-cost while telemetry is disabled).
var cepFeedHist = telemetry.NewHistogram("cep_feed_ns")

// feed processes one event through the lane's patterns subscribed to its
// type (plus the catch-all bucket), in registration order.
func (ln *lane) feed(ev Event) (dets []Detection) {
	ln.mu.Lock()
	start := cepFeedHist.Start()
	typed := ln.byType[ev.Type]
	all := ln.catchAll
	// Merge the two seq-sorted buckets so delivery order matches a linear
	// walk over every registered pattern.
	i, j := 0, 0
	for i < len(typed) || j < len(all) {
		var p Pattern
		if j >= len(all) || (i < len(typed) && typed[i].seq < all[j].seq) {
			p = typed[i].p
			i++
		} else {
			p = all[j].p
			j++
		}
		if d, ok := p.OnEvent(ev); ok {
			// Stage attribution: the completing event's clock rides on the
			// detection, and the deliver→detect edge closes here (nil-safe).
			d.Stage = ev.Stage
			ev.Stage.MarkDetect()
			dets = append(dets, d)
		}
	}
	cepFeedHist.ObserveSince(start)
	ln.mu.Unlock()
	return dets
}

// advance ticks the lane's patterns in registration order, so delivery is
// deterministic regardless of how patterns are indexed.
func (ln *lane) advance(now time.Time) (dets []Detection) {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	for _, p := range ln.patterns {
		if d, ok := p.OnTick(now); ok {
			dets = append(dets, d)
		}
	}
	return dets
}

// purge drops matching events from the windows of the lane's patterns
// that implement Purger and returns the total dropped.
func (ln *lane) purge(match func(Event) bool) int {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	n := 0
	for _, p := range ln.patterns {
		if pr, ok := p.(Purger); ok {
			n += pr.PurgeEvents(match)
		}
	}
	return n
}

// A ShardedEngine partitions pattern dispatch across n lanes keyed by the
// event's Source — the same FNV-1a component hash the sharded bus uses —
// so concurrent feeders on different lanes detect in parallel, each lane
// behind its own lock. Patterns homed on a lane (SourceAffine, all
// declared sources on that lane) see only that lane's events; everything
// else lives in a small broadcast lane that sees every event and is the
// only cross-lane serialization point. A 1-lane engine holds every
// pattern on lane 0, so it delivers in registration order, and callers
// that feed and advance from one goroutine get exactly reproducible runs.
//
// Detections are delivered to the handler after the lane lock is
// released, so the handler may call Purge (erase-on-event does) and may
// itself run concurrently with feeds on other lanes — handlers must be
// safe for concurrent use on multi-lane engines. Within one lane,
// detection order is registration order; ordering across lanes is
// whatever the feeders' concurrency produces.
type ShardedEngine struct {
	handler func(Detection)
	lanes   []*lane
	bcast   *lane
}

// NewShardedEngine builds an engine with n dispatch lanes (clamped to at
// least 1) delivering detections to handler.
func NewShardedEngine(n int, handler func(Detection)) *ShardedEngine {
	if n < 1 {
		n = 1
	}
	if handler == nil {
		handler = func(Detection) {}
	}
	se := &ShardedEngine{handler: handler, lanes: make([]*lane, n)}
	for i := range se.lanes {
		se.lanes[i] = &lane{byType: make(map[string][]indexed)}
	}
	se.bcast = &lane{byType: make(map[string][]indexed)}
	return se
}

// Lanes returns the engine's lane count.
func (se *ShardedEngine) Lanes() int { return len(se.lanes) }

// LaneEvals returns per-lane lifetime event counts (broadcast-set feeds
// are attributed to the source's numbered lane, where the event was
// counted). Lock-free.
func (se *ShardedEngine) LaneEvals() []uint64 {
	out := make([]uint64, len(se.lanes))
	for i, ln := range se.lanes {
		out[i] = ln.evals.Load()
	}
	return out
}

// LaneOf reports the dispatch lane events from the given source are fed
// to. The mapping is a pure function of the source name and the lane
// count, matching the bus's component placement.
func (se *ShardedEngine) LaneOf(source string) int {
	return laneIdxFor(source, len(se.lanes))
}

// homeLane picks where a pattern lives: the single lane every declared
// source hashes to, or the broadcast lane for undeclared and cross-lane
// patterns.
func (se *ShardedEngine) homeLane(p Pattern) *lane {
	if len(se.lanes) == 1 {
		return se.lanes[0] // single lane: registration order, no broadcast split
	}
	sa, ok := p.(SourceAffine)
	if !ok {
		return se.bcast
	}
	srcs := sa.EventSources()
	if len(srcs) == 0 {
		return se.bcast
	}
	home := laneIdxFor(srcs[0], len(se.lanes))
	for _, s := range srcs[1:] {
		if laneIdxFor(s, len(se.lanes)) != home {
			return se.bcast // cross-lane correlation: broadcast set
		}
	}
	return se.lanes[home]
}

// Register adds a pattern, homing it by source affinity (see
// SourceAffine). Safe to call while other goroutines feed.
func (se *ShardedEngine) Register(p Pattern) {
	se.homeLane(p).register(p)
}

// Feed processes one event through the patterns on its source's lane and
// through the broadcast set, delivering detections (lane first, then
// broadcast, each in registration order) outside the lane locks. Feeders
// for sources on different lanes run in parallel.
func (se *ShardedEngine) Feed(ev Event) {
	ln := se.lanes[laneIdxFor(ev.Source, len(se.lanes))]
	ln.evals.Add(1)
	for _, d := range ln.feed(ev) {
		se.handler(d)
	}
	if se.bcast.npat.Load() == 0 {
		return
	}
	for _, d := range se.bcast.feed(ev) {
		se.handler(d)
	}
}

// Advance moves every lane's clock forward in lane order (numbered lanes,
// then broadcast), delivering each lane's detections before ticking the
// next, so time-driven delivery is deterministic for a quiescent engine.
func (se *ShardedEngine) Advance(now time.Time) {
	for _, ln := range se.lanes {
		for _, d := range ln.advance(now) {
			se.handler(d)
		}
	}
	if se.bcast.npat.Load() == 0 {
		return
	}
	for _, d := range se.bcast.advance(now) {
		se.handler(d)
	}
}

// Purge drops matching events from every lane's pattern windows and
// returns the total dropped. Lanes are purged one at a time under their
// own locks; no lock is held across lanes, so Purge is safe from inside
// a detection handler (handlers run outside the lane locks).
func (se *ShardedEngine) Purge(match func(Event) bool) int {
	n := 0
	for _, ln := range se.lanes {
		n += ln.purge(match)
	}
	return n + se.bcast.purge(match)
}
