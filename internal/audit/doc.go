// Package audit implements the paper's audit plane (Section 8.3): a
// tamper-evident, hash-chained log of every enforcement decision, and the
// provenance graph derived from it — "the logs generated during IFC
// enforcement are a natural source of provenance information" — following
// the Open Provenance Model conventions of Fig. 11.
//
// # Chain-ordered ingest from parallel staging lanes
//
// The Log's hash chain needs a total order — every record names its
// predecessor's hash — but the hot producers (the sharded bus's
// dispatchers, one per shard) must not serialize on a single pending
// list. AppendAsyncOn stages records into per-lane buffers: a lane
// append takes a global ticket and the lane's lock only, so dispatchers
// on different lanes never contend. A single on-demand hasher goroutine
// merges staged records across lanes by ticket order and commits them
// under the chain lock — chain-head assignment stays serialized, which
// is what makes the chain a total order — and delivers each committed
// batch to the registered sinks in sequence. Tickets are issued under
// the lane lock, and the hasher holds every lane lock while it swaps the
// buffers out, so each batch is a contiguous ticket range: one
// goroutine's appends can never commit out of program order, whatever
// lanes it mixes, and Flush's watermark (tickets issued vs records
// committed) is exact. Committed records are kept in fixed-size chunks,
// so a commit never copies earlier records and Prune releases whole
// chunks. Staging is the only ingest path: control records
// (policy actions, channel changes, obligations) stage beside flow
// records on lane 0 and commit after everything staged before them, so
// a reconfiguration never waits for the data plane's evidence backlog.
// SetStagingLanes grows the lane set (the sharded bus sizes it to its
// shard count).
//
// # Incremental provenance
//
// The graph is compact so that it can live on the message path. Node IDs
// are interned into slots; each slot's adjacency is a list of packed
// words (far slot << 8 | edge kind), which hold no pointers, so the
// garbage collector never scans them. Edges form a set: AddEdge and
// Append are idempotent, and a stream that repeats the same process pairs
// and agents adds one wasInformedBy and one wasControlledBy edge per pair
// rather than per message. An edge with a data endpoint is deduplicated
// by scanning that datum's own list (data nodes have fan-out degree);
// only edges between process and agent nodes are keyed by (source slot,
// destination slot, kind) in a hash set, so a new datum adds no set
// entries. An edge count kept beside them makes Len O(1). Append builds a
// process node's attributes only when it creates the node.
//
// Graphs are built for querying: Ancestry and Descendants memoize each
// node's reachability set, stamped with a graph epoch that advances only
// when the edge set changes — a new edge, or a RemoveNodes that deleted
// something; re-deriving a known flow leaves the epoch, and the memo,
// alone. The first query after a topology change walks the history;
// repeats are served from the memo in time proportional to the answer,
// not to the history depth. Graph.Append ingests new audit records into an
// existing graph — the build-once/append-many path — so a growing log
// never forces a full rebuild.
package audit
