// Package sbus is the reconfigurable messaging middleware of Section 8.1,
// modelled on SBUS, extended with the CamFlow-style IFC enforcement of
// Section 8.2.2. It provides:
//
//   - Components with strongly-typed endpoints (package msg schemas).
//   - Channel establishment gated by access control at message-type
//     granularity *and* by IFC: "a channel is only established if the
//     policy allows, i.e. the tags of the components accord".
//   - Continuous monitoring: a component changing its security context
//     triggers re-evaluation of its channels; channels that are no longer
//     legal are torn down and the teardown audited.
//   - Message-layer tags above the OS-level context (Fig. 10's tag C), with
//     source quenching of individual attributes whose tags the receiver
//     lacks.
//   - Third-party reconfiguration (Fig. 8): privileged principals send
//     control messages that connect, disconnect, relabel or quarantine
//     components, "executed as though the application had initiated them".
//   - Cross-bus links over package transport, so two machines' substrates
//     enforce co-operatively (Fig. 9): the sender's bus checks egress, the
//     receiver's bus re-checks ingress against its own view, in the
//     pipeline local deliveries run; only the link gates (a local sink, an
//     established channel, admission, decode) are its own. Links speak
//     the batched binary link protocol v5 (wire.go) through a bounded,
//     backpressured per-peer egress queue, and dialed links self-heal:
//     reconnect with exponential backoff, then resume the session by
//     replaying every egress channel's connect handshake (link.go).
//
// # Sharded core
//
// The bus partitions its routing state into N shards (NewShardedBus; a
// single-shard bus is NewShardedBus with N = 1). A component's home shard
// is a pure function of its name (FNV-1a hash), so placement is
// deterministic and discoverable via Bus.ShardOf before registration.
// Each shard owns:
//
//   - an independent copy-on-write routing snapshot (components, channels
//     keyed by owning source, by-source and by-component channel indexes),
//     read lock-free by the hot path. Each index is a map spread over 256
//     buckets and copied per bucket: a mutation, under the shard's own
//     mutex, copies the 2 KiB bucket table of each index it writes and
//     the buckets it writes, so its cost follows what it touches, not the
//     size of the shard;
//   - a bounded handoff ring and a dispatcher goroutine (started only when
//     N > 1) that delivers messages whose sink lives on that shard.
//
// Every channel change — Connect, ConnectMany, Disconnect, re-evaluation
// teardown, link resume refusal — is one applyRoutes call: one critical
// section over every shard the edits touch, locked in ascending index
// order, so concurrent changes never deadlock and never interleave on a
// key.
//
// A channel is owned by its source's shard. Deliveries whose sink shares
// the source's shard run inline in the publisher's goroutine, exactly as
// on a single-shard bus. Cross-shard deliveries enqueue a handoff onto
// the sink shard's ring — lock-free, never blocking the publisher — and
// the sink shard's dispatcher applies the full enforcement pipeline
// (generation-stamp check, flow re-check, quenching, audit). If a ring is
// full, or the bus has been Closed (so no dispatcher will drain the
// ring), the publisher delivers inline instead, trading ordering for
// liveness; the ring-full fallback is counted in ShardStats. Every sink
// receives the same read-only message; only quenching an attribute
// away makes a copy (see Handler).
//
// Ordering semantics: deliveries on one channel from one publishing
// goroutine are FIFO while the sink shard's ring has capacity (one
// dispatcher drains each ring in arrival order). Cross-channel and
// cross-publisher ordering is unspecified, as it already was on the
// single-shard bus. Under overload the inline fallback weakens even the
// per-channel guarantee: the overflowed message can overtake older
// messages still queued on the ring, and the sink handler can run on the
// publisher's goroutine concurrently with the dispatcher — handlers on a
// multi-shard bus must tolerate both. Because a handoff retains the
// published message after Publish returns, messages are immutable once
// published; see Component.Publish.
//
// Shard affinity is the scaling contract: operations touch only the home
// shards of the components involved. Registration, connection, teardown
// and context re-evaluation on one shard never contend with publishes or
// reconfiguration on another; SetContext re-evaluates only the channels
// indexed on the component's home shard. Cross-bus links and the
// obligations egress gate sit above the shards and are unaffected by N.
//
// Every attempted flow — permitted or denied — is appended to the bus's
// audit log.
package sbus
