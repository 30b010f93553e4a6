// Package cep is a small complex-event-processing engine, the "detect" half
// of the paper's detect/respond architecture (Section 5): "actions are taken
// on patterns of events, e.g. detected by complex-event methods". The
// policy engine subscribes to detections and responds with reconfiguration.
//
// ShardedEngine is the one engine. It partitions dispatch across lanes
// for the domain's parallel pipeline (below); each lane owns its
// patterns, its type index and its lock. A 1-lane engine holds every
// pattern on one lane and delivers in registration order, so callers
// that feed events and advance time from one goroutine — simulations,
// tests — get exactly reproducible runs.
//
// # Type-indexed dispatch
//
// Feeding an event costs work proportional to the patterns that can match
// it, not to every registered pattern. Patterns that implement
// TypedPattern (the built-in Threshold, Sequence, Absence and Aggregate do,
// via their Types field) are indexed by declared event type at Register
// time; patterns without a declaration land in a catch-all bucket that
// sees every event. Feed merges the event type's bucket with the catch-all
// bucket in registration order, so detections are delivered exactly as a
// linear walk over every pattern would deliver them — the index prunes
// work, never reorders or drops it. Advance always ticks patterns in
// registration order, keeping time-driven delivery deterministic too.
//
// # Source-partitioned lanes
//
// Lanes add a second axis: patterns that declare their event
// sources (SourceAffine; the built-ins do, via their Sources field) are
// homed on the lane every declared source hashes to — the same FNV-1a
// placement hash the sharded bus uses for components
// (internal/lanehash) — so the bus dispatcher that delivers a
// component's message feeds the very lane that owns the component's
// patterns, under that lane's lock only. Patterns without a source
// declaration, or whose sources span lanes (cross-shard correlations),
// live in a small broadcast set that sees every event and is the single
// cross-lane serialization point. As with the type index, partitioning
// prunes work without changing semantics: source-declared patterns
// ignore events from other sources, so partitioned delivery is
// observably identical to feeding every pattern.
//
// Detections are handed to the ShardedEngine's handler after the lane
// lock is released, so handlers may re-enter the engine (the domain's
// erase-on-event obligation purges windows from inside a handler) and
// must be safe for concurrent use when feeders run in parallel.
package cep
