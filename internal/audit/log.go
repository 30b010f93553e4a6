package audit

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/fault"
	"lciot/internal/telemetry"
)

// fpSinkStall is the chaos seam in the async ingest pipeline: an armed
// delay stalls the hasher goroutine once per drained batch — publishers
// on the AppendAsync hot path then back up against the bounded staging
// lanes, which is exactly the backpressure behaviour soak drills verify.
var fpSinkStall = fault.New("audit.sink.stall")

// Errors reported by Log.
var (
	ErrChainBroken = errors.New("audit: hash chain broken")
	ErrPruned      = errors.New("audit: range pruned")
)

// A Log is a tamper-evident, append-only audit log. Every record's hash
// covers its content and its predecessor's hash; Verify detects any
// retrospective modification. Logs may be pruned from the front once a
// segment has been offloaded (Challenge 6: "can logs be offloaded to others
// for distributed audit?"), retaining the chain head so continuity remains
// checkable.
//
// Ingest has one path. AppendAsyncOn stages the record into a bounded
// per-lane buffer and returns; a background hasher goroutine collects the
// staged lanes, merges them by arrival ticket, and commits the batch,
// assigning sequence numbers and chaining hashes. Flush blocks until
// every record staged before the call is committed. Every read-side
// method (Len, Get, Select, Verify, HeadHash, Checkpoint, Prune) flushes
// first, so observers always see a complete, verifiable chain. A caller
// that needs its committed record stages it, then reads it back.
//
// Staging is sharded: SetStagingLanes(n) gives the log n independent
// staging buffers, each behind its own lock, so concurrent producers
// (e.g. the bus's per-shard dispatchers) never contend on one ingest
// mutex. AppendAsyncOn stages into a chosen lane; AppendAsync uses
// lane 0. Chain head assignment stays serialized — only the hasher
// assigns Seq/PrevHash/Hash, in arrival-ticket order — so the sharded
// staging changes who waits where, never what the chain looks like:
// records staged by one goroutine always commit in that goroutine's
// program order, whatever lane mix it used, and after every record any
// goroutine staged before it.
//
// The zero value is ready to use (one staging lane).
type Log struct {
	mu sync.Mutex
	// chunks hold the retained records in seq order, chunkLen to a chunk;
	// chunk i starts at seq base+i*chunkLen. A commit fills the last chunk
	// or starts a new one, so committing never copies earlier records, and
	// Prune releases whole chunks.
	chunks [][]Record
	base   uint64
	// firstSeq is the sequence number of the first retained record; it
	// advances on prune.
	firstSeq uint64
	nextSeq  uint64
	// lastHash is the hash of the most recent record (or the pruned
	// checkpoint's hash).
	lastHash [32]byte
	now      func() time.Time
	// sinks receive a copy of each committed record (e.g. a domain-wide
	// collector, or a durable store), in chain order. They run only on the
	// hasher goroutine, one batch at a time, so they are never entered
	// concurrently. They must not block for long, and must not append to
	// or read this log: a Flush or read-side call would wait on the
	// hasher itself, and an append can block on lane backpressure that
	// only the hasher relieves — either way a self-deadlock. Appending to
	// a *different* log is fine.
	sinks []func(Record)

	// lanes holds the per-shard staging buffers (lazily a single lane for
	// zero-value logs; see SetStagingLanes).
	lanes atomic.Pointer[[]stageLane]
	// tickets issues one arrival ticket per staged record, taken under the
	// staging lane's lock so each lane's buffer is ticket-ordered. The
	// hasher merges lanes by ticket, which defines chain order.
	tickets atomic.Uint64
	// draining is true while a hasher goroutine is live. The goroutine is
	// started on demand and exits when every lane empties, so idle logs
	// hold no background resources.
	draining atomic.Bool
	// flushMu guards completed; Flush waits on the watermark — completed
	// catching up with tickets-issued-as-of-the-call — not on full
	// quiescence, so it stays bounded under sustained ingest.
	flushMu   sync.Mutex
	flushCond *sync.Cond
	completed uint64

	// spare and batch belong to the hasher goroutine: the buffers it
	// handed back to the lanes at the last collection, and the merged
	// batch. Reusing them keeps staging from regrowing a buffer per batch.
	spare [][]staged
	batch []staged
}

// A staged record is one AppendAsync payload parked in a lane buffer with
// the arrival ticket that fixes its place in the chain, plus the stage
// clock of the message that produced it (nil for unsampled flows): the
// hasher marks the audit edge at commit.
type staged struct {
	ticket uint64
	rec    Record
	stage  *telemetry.StageClock
}

// A stageLane is one staging buffer: its own lock, its own backpressure
// condition, its own slice — plus lifetime ingest counters (records and
// approximate bytes staged), maintained under the same lock the producer
// already holds, so lane-load accounting costs no extra synchronisation.
// Producers on different lanes never touch the same lock.
type stageLane struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []staged
	records uint64
	bytes   uint64
}

// condLocked lazily builds the lane's backpressure condition variable;
// the lane's mu must be held.
func (ln *stageLane) condLocked() *sync.Cond {
	if ln.cond == nil {
		ln.cond = sync.NewCond(&ln.mu)
	}
	return ln.cond
}

// maxPending bounds each staging lane; enqueueing beyond it blocks until
// the hasher catches up (backpressure rather than unbounded memory).
const maxPending = 4096

// NewLog builds an empty log. A nil clock means time.Now.
func NewLog(clock func() time.Time) *Log {
	if clock == nil {
		clock = time.Now
	}
	return &Log{now: clock}
}

// clock returns the log's time source (zero-value logs use time.Now).
func (l *Log) clock() time.Time {
	if l.now == nil {
		return time.Now()
	}
	return l.now()
}

// AddSink registers a callback invoked for each committed record, on the
// hasher goroutine. Sinks enable hierarchical collection: a thing's log
// forwards into its domain's log. See the sinks field for what a sink
// must not do.
func (l *Log) AddSink(sink func(Record)) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sinks = append(l.sinks, sink)
}

// SetStagingLanes resizes the async staging tier to n independent lanes
// (clamped to at least 1). Growing the lane count is what the sharded bus
// does at construction so each shard dispatcher stages on its own lock;
// a request smaller than the current count is a no-op, so two buses
// sharing a log keep the larger tier. Call before concurrent ingest
// begins: the resize flushes, and records staged after it land in the
// new lanes.
func (l *Log) SetStagingLanes(n int) {
	if n < 1 {
		n = 1
	}
	if cur := l.lanes.Load(); cur != nil && len(*cur) >= n {
		return
	}
	l.Flush()
	lanes := make([]stageLane, n)
	l.lanes.Store(&lanes)
}

// getLanes returns the staging lanes, lazily installing a single lane so
// the zero-value Log stays ready to use.
func (l *Log) getLanes() *[]stageLane {
	if lanes := l.lanes.Load(); lanes != nil {
		return lanes
	}
	fresh := make([]stageLane, 1)
	l.lanes.CompareAndSwap(nil, &fresh)
	return l.lanes.Load()
}

// AppendAsync is AppendAsyncOn(0, r, nil): the entry point for unsharded
// callers and records that carry no stage clock.
func (l *Log) AppendAsync(r Record) { l.AppendAsyncOn(0, r, nil) }

// AppendAsyncOn stages a record for batched, background hashing on the
// given staging lane (reduced modulo the lane count) and returns
// immediately. The record's timestamp is assigned now (when zero); its
// sequence number and chained hash are assigned by the hasher in
// arrival-ticket order. Callers running on distinct lanes contend on
// nothing but the arrival-ticket counter. stage is the stage clock of the
// message that produced the record (its m.Trace.Clock; nil for unsampled
// flows): the hasher marks its audit edge when the record commits,
// closing the last pipeline stage. Call Flush to wait for commitment; read-side
// methods flush implicitly.
func (l *Log) AppendAsyncOn(lane int, r Record, stage *telemetry.StageClock) {
	if r.Time.IsZero() {
		r.Time = l.clock()
	}
	lanes := *l.getLanes()
	if lane < 0 {
		lane = -lane
	}
	ln := &lanes[lane%len(lanes)]
	ln.mu.Lock()
	for len(ln.buf) >= maxPending {
		ln.condLocked().Wait()
	}
	// Ticket under the lane lock: each lane's buffer stays ticket-ordered,
	// and a goroutine's consecutive appends get ascending tickets, so the
	// hasher's merged order preserves every producer's program order.
	ln.buf = append(ln.buf, staged{ticket: l.tickets.Add(1), rec: r, stage: stage})
	ln.records++
	ln.bytes += approxRecordSize(&r)
	ln.mu.Unlock()
	if l.draining.CompareAndSwap(false, true) {
		go l.drain()
	}
}

// approxRecordSize estimates a record's in-memory footprint for lane-load
// accounting: the fixed struct size plus the variable string payloads. An
// estimate is enough — skew reports compare lanes against each other, so
// only relative weight matters.
func approxRecordSize(r *Record) uint64 {
	const fixed = 256 // struct fields, hashes, label headers
	return uint64(fixed +
		len(r.Domain) + len(r.Src) + len(r.Dst) + len(r.DataID) +
		len(r.Agent) + len(r.Note) + len(r.TraceID))
}

// A LaneIngest summarises one staging lane's lifetime async ingest: how
// many records were staged there and their approximate size. The counters
// are cumulative — they survive drains — so two snapshots diff cleanly.
type LaneIngest struct {
	Records uint64
	Bytes   uint64
}

// LaneStats returns per-lane lifetime ingest counters, indexed by staging
// lane. It takes each lane's lock briefly; producers on other lanes are
// unaffected.
func (l *Log) LaneStats() []LaneIngest {
	lanes := *l.getLanes()
	out := make([]LaneIngest, len(lanes))
	for i := range lanes {
		ln := &lanes[i]
		ln.mu.Lock()
		out[i] = LaneIngest{Records: ln.records, Bytes: ln.bytes}
		ln.mu.Unlock()
	}
	return out
}

// IngestDepth reports how many AppendAsync records are staged but not
// yet hashed and committed — the async ingest queue depth the telemetry
// layer surfaces.
func (l *Log) IngestDepth() int {
	issued := l.tickets.Load()
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	return int(issued - l.completed)
}

// Flush blocks until every record staged via AppendAsync/AppendAsyncOn
// before the call has been hashed, chained and delivered to sinks.
// Records staged after the call are not waited for, so Flush is bounded
// even while other goroutines keep appending.
func (l *Log) Flush() {
	target := l.tickets.Load()
	l.flushMu.Lock()
	for l.completed < target {
		l.flushCondLocked().Wait()
	}
	l.flushMu.Unlock()
}

// flushCondLocked lazily builds the watermark condition variable (so the
// zero-value Log stays ready to use). Callers must hold flushMu.
func (l *Log) flushCondLocked() *sync.Cond {
	if l.flushCond == nil {
		l.flushCond = sync.NewCond(&l.flushMu)
	}
	return l.flushCond
}

// collectStaged swaps out every lane's staged buffer for an empty one,
// wakes producers blocked on lane backpressure, and returns the batch in
// arrival-ticket order — the order the chain will record. Every lane's
// lock is held across the swap: a ticket is taken and staged under one
// lane lock, so with all of them held every ticket issued so far is in
// some buffer, and each batch is the next contiguous ticket range
// [lo, lo+n), lo being the smallest ticket at a lane's head. Each record
// is copied straight to its place, batch[ticket-lo]; no sort is needed.
// Swapping lane by lane could take a later ticket from one lane before an
// earlier one landed in a lane already visited, and commit it first.
func (l *Log) collectStaged() []staged {
	lanes := *l.getLanes()
	if len(l.spare) != len(lanes) {
		l.spare = make([][]staged, len(lanes))
	}
	for i := range lanes {
		lanes[i].mu.Lock()
	}
	lo, n := uint64(math.MaxUint64), 0
	for i := range lanes {
		ln := &lanes[i]
		if len(ln.buf) > 0 {
			lo = min(lo, ln.buf[0].ticket)
			n += len(ln.buf)
			l.spare[i], ln.buf = ln.buf, l.spare[i][:0]
			ln.condLocked().Broadcast() // release writers blocked on backpressure
		} else {
			l.spare[i] = l.spare[i][:0]
		}
	}
	if n == 0 {
		// Nothing is staged and no producer can stage until the locks are
		// released, so this hasher stops here: a later append sees the flag
		// clear and starts a new one, which owns spare and batch from then.
		l.draining.Store(false)
	}
	for i := range lanes {
		lanes[i].mu.Unlock()
	}
	if n == 0 {
		return nil // spare and batch may already belong to the next hasher
	}
	return l.placeStaged(lo, n)
}

// placeStaged copies the n records in the swapped-out lane buffers
// (l.spare) into l.batch at their ticket offset from lo. Tickets are
// distinct, so a gap in the range pushes some ticket past lo+n; that is a
// lost record, and placing around it would commit a zero Record in its
// place, so it panics instead.
func (l *Log) placeStaged(lo uint64, n int) []staged {
	l.batch = slices.Grow(l.batch[:0], n)
	batch := l.batch[:n]
	for _, buf := range l.spare {
		for i := range buf {
			at := buf[i].ticket - lo
			if at >= uint64(n) {
				panic(fmt.Sprintf("audit: staged ticket %d outside the batch range [%d, %d)", buf[i].ticket, lo, lo+uint64(n)))
			}
			batch[at] = buf[i]
		}
	}
	return batch
}

// drain is the background hasher: it repeatedly collects the staged lanes
// into one ticket-ordered batch and commits it under the chain lock, then
// exits once a collection finds every lane empty. Chain head assignment
// happens only here — staging is sharded, sequencing is not.
func (l *Log) drain() {
	for {
		batch := l.collectStaged()
		if len(batch) == 0 {
			return // collectStaged cleared draining
		}

		if act := fpSinkStall.Check(); act != nil {
			act.Wait()
		}
		l.mu.Lock()
		for i := range batch {
			l.commitLocked(&batch[i].rec)
		}
		sinks := l.sinks
		l.mu.Unlock()
		// Close the audit stage edge now that the records are in the
		// chain (nil-safe; most records carry no clock).
		for i := range batch {
			batch[i].stage.MarkAudit()
		}
		for _, s := range sinks {
			for i := range batch {
				s(batch[i].rec)
			}
		}

		l.flushMu.Lock()
		l.completed += uint64(len(batch))
		l.flushCondLocked().Broadcast() // advance the Flush watermark
		l.flushMu.Unlock()
	}
}

// chunkLen is the number of records per chunk of the retained tail.
const chunkLen = 4096

// commitLocked assigns seq, chains and stores one record; l.mu must be held.
func (l *Log) commitLocked(r *Record) {
	r.Seq = l.nextSeq
	r.PrevHash = l.lastHash
	r.Hash = computeHash(r)
	n := len(l.chunks)
	if n == 0 {
		l.base = l.nextSeq
	}
	if n == 0 || len(l.chunks[n-1]) == chunkLen {
		// The first chunk grows as it fills, so a log that commits a
		// handful of records never pays for a whole chunk; once one has
		// filled, the next is allocated whole.
		var c []Record
		if n > 0 {
			c = make([]Record, 0, chunkLen)
		}
		l.chunks = append(l.chunks, c)
		n++
	}
	l.chunks[n-1] = append(l.chunks[n-1], *r)
	l.nextSeq++
	l.lastHash = r.Hash
}

// at returns the retained record with the given sequence number, which
// the caller has checked lies in [firstSeq, nextSeq); l.mu must be held.
func (l *Log) at(seq uint64) *Record {
	i := seq - l.base
	return &l.chunks[i/chunkLen][i%chunkLen]
}

// Restore primes an empty log with a recovery checkpoint: the next
// sequence number to assign and the hash of the last record committed
// before the process died. Subsequent appends continue the persisted
// chain exactly as Prune-retained logs do — the first new record carries
// lastHash as its PrevHash, so the chain verifies across the restart
// boundary. Restoring a log that has already committed records is an
// error; recovery happens before ingest begins.
func (l *Log) Restore(nextSeq uint64, lastHash [32]byte) error {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextSeq != 0 || len(l.chunks) != 0 {
		return errors.New("audit: Restore on a log that already has records")
	}
	l.firstSeq = nextSeq
	l.nextSeq = nextSeq
	l.lastHash = lastHash
	return nil
}

// Checkpoint returns the log's chain head: the next sequence number and
// the hash of the last committed record (the pruned checkpoint's hash when
// everything has been pruned). A durable store resuming this chain after a
// restart feeds these back through Restore.
func (l *Log) Checkpoint() (nextSeq uint64, lastHash [32]byte) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq, l.lastHash
}

// Len returns the number of retained records.
func (l *Log) Len() int {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.nextSeq - l.firstSeq)
}

// HeadHash returns the hash of the latest record.
func (l *Log) HeadHash() [32]byte {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastHash
}

// Get returns the record with the given sequence number.
func (l *Log) Get(seq uint64) (Record, error) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq < l.firstSeq {
		return Record{}, fmt.Errorf("%w: seq %d < first retained %d", ErrPruned, seq, l.firstSeq)
	}
	if seq >= l.nextSeq {
		return Record{}, fmt.Errorf("audit: seq %d beyond head %d", seq, l.nextSeq)
	}
	return *l.at(seq), nil
}

// Select returns a copy of all retained records matching the filter; a nil
// filter selects everything.
func (l *Log) Select(filter func(Record) bool) []Record {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Record
	if filter == nil {
		out = make([]Record, 0, l.nextSeq-l.firstSeq)
	}
	for seq := l.firstSeq; seq < l.nextSeq; seq++ {
		if r := l.at(seq); filter == nil || filter(*r) {
			out = append(out, *r)
		}
	}
	return out
}

// Verify walks the retained chain, checking every record's hash and
// linkage (VerifyRecord). It returns the sequence number of the first bad
// record, or -1 with a nil error when the chain is intact. The first
// retained record's PrevHash is trusted: it is the checkpoint left by
// pruning.
func (l *Log) Verify() (int64, error) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	var prev *[32]byte
	for seq := l.firstSeq; seq < l.nextSeq; seq++ {
		r := l.at(seq)
		if err := VerifyRecord(r, prev); err != nil {
			return int64(r.Seq), err
		}
		prev = &r.Hash
	}
	return -1, nil
}

// VerifyRecord is the chain rule every verifier applies to one record:
// it must link to prev, its predecessor's Hash (nil for the first record
// checked, whose PrevHash is trusted); a tombstone must really be one
// (ValidTombstone), and is then checked by linkage only — its payload is
// gone by design, but it still carries the original hash, so the chain
// continues through it; any other record's recomputed hash must equal
// its Hash.
func VerifyRecord(r *Record, prev *[32]byte) error {
	if prev != nil && r.PrevHash != *prev {
		return fmt.Errorf("%w: record %d links to wrong predecessor", ErrChainBroken, r.Seq)
	}
	if r.Redacted {
		// The flag exempts a record from the content-hash check, so any
		// surviving payload under it is a forgery, not an erasure.
		if !ValidTombstone(r) {
			return fmt.Errorf("%w: record %d marked redacted but carries payload", ErrChainBroken, r.Seq)
		}
	} else if computeHash(r) != r.Hash {
		return fmt.Errorf("%w: record %d content hash mismatch", ErrChainBroken, r.Seq)
	}
	return nil
}

// RedactMany tombstones every listed retained record with one flush and
// one lock acquisition (a batch erasure would otherwise pay a hasher
// round trip per record). Sequence numbers outside the retained window
// and already-redacted records are skipped. Returns the number of records
// newly tombstoned.
func (l *Log) RedactMany(seqs []uint64, note string) int {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, seq := range seqs {
		if seq < l.firstSeq || seq >= l.nextSeq {
			continue
		}
		if r := l.at(seq); !r.Redacted {
			*r = r.Redact(note)
			n++
		}
	}
	return n
}

// Prune discards records with Seq < upto and returns how many it dropped.
// It copies nothing out: a caller that offloads the range reads it first
// (Select, Get, or the durable store that already holds it). The chain
// head remains verifiable because the first retained record still carries
// the hash of the last pruned one.
func (l *Log) Prune(upto uint64) int {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if upto <= l.firstSeq {
		return 0
	}
	if upto > l.nextSeq {
		upto = l.nextSeq
	}
	n := int(upto - l.firstSeq)
	// Release every chunk wholly below upto, and the pruned records in the
	// chunk that is now first.
	drop := (upto - l.base) / chunkLen
	clear(l.chunks[:drop])
	l.chunks = l.chunks[drop:]
	l.base += drop * chunkLen
	if len(l.chunks) > 0 {
		clear(l.chunks[0][:upto-l.base])
	}
	l.firstSeq = upto
	return n
}

// VerifySegment checks an offloaded segment against itself (VerifyRecord
// on every record, trusting the first one's PrevHash) and, when the
// follower's first retained record is supplied, against the retained
// chain.
func VerifySegment(segment []Record, next *Record) error {
	var prev *[32]byte
	for i := range segment {
		if err := VerifyRecord(&segment[i], prev); err != nil {
			return err
		}
		prev = &segment[i].Hash
	}
	if next != nil && len(segment) > 0 {
		if next.PrevHash != segment[len(segment)-1].Hash {
			return fmt.Errorf("%w: retained log does not follow segment", ErrChainBroken)
		}
	}
	return nil
}
