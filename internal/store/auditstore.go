package store

import (
	"errors"
	"fmt"
	"sync"

	"lciot/internal/audit"
	"lciot/internal/telemetry"
)

// ErrChainBoundary reports a record whose hash chain does not continue the
// persisted chain — the memory/disk boundary was broken.
var ErrChainBoundary = errors.New("store: audit chain boundary mismatch")

// ErrDegraded reports that the audit store has entered degraded mode: a
// WAL I/O error (full disk, failed fsync) made further persistence
// impossible, and incoming chain records are being held in a bounded
// in-memory buffer instead of being written. The error is sticky for the
// life of the process and wraps the root cause, so
// errors.Is(err, ErrDegraded) and errors.Is(err, syscall.ENOSPC) both
// work. Recovery is by restart: the WAL's recovery truncates the torn
// tail and the chain resumes from the durable boundary.
var ErrDegraded = errors.New("store: audit store degraded")

// maxDegradedBuffer bounds the records a degraded store holds in memory.
// Beyond it records are shed (counted, never silent): bounded memory is
// the point of degrading gracefully instead of wedging group commit.
const maxDegradedBuffer = 4096

// An AuditStore is the disk tier of the tamper-evident audit log: a WAL of
// audit.Record values in their binary wire form, with the hash chain kept
// contiguous across the memory/disk boundary. Open recovers and verifies
// the persisted chain; AttachLog primes a fresh in-memory audit.Log with
// the recovered chain head, registers a sink persisting every subsequent
// record, and thereby makes the paper's compliance evidence survive the
// restarts that used to destroy it.
type AuditStore struct {
	w *WAL

	// mu guards the chain head. Appends are already serialised by
	// audit.Log's ordered sink delivery; the lock makes concurrent
	// read-side calls (NextSeq, VerifyAgainst, tooling) race-free.
	mu       sync.Mutex
	nextSeq  uint64
	lastHash [32]byte
	buf      []byte // encode scratch, reused across appends

	// Degradation state (sticky; see ErrDegraded). cause is the root WAL
	// error; buffered holds chain records accepted after degradation
	// (bounded by maxDegradedBuffer); shed counts records dropped beyond
	// the bound. All under mu.
	cause    error
	buffered []audit.Record
	shed     uint64
}

// OpenAudit opens (creating if necessary) a durable audit store in dir and
// recovers it: segments are replayed, a torn tail truncated, and every
// surviving record's hash chain verified end to end. The WAL sequence and
// the audit sequence advance in lockstep, so torn-tail truncation and
// chain verification compose.
func OpenAudit(dir string, opts Options) (*AuditStore, error) {
	w, err := Open(dir, opts)
	if err != nil {
		return nil, err
	}
	s := &AuditStore{w: w}
	s.nextSeq = w.NextSeq()
	if bad, err := s.verifyRange(w.FirstSeq(), 0, &s.lastHash); err != nil {
		w.Close()
		return nil, fmt.Errorf("recovered store seq %d: %w", bad, err)
	}
	// Degradation state, func-backed: the series read the fields the
	// store maintains anyway, so the append path pays nothing.
	reg := telemetry.Default()
	reg.GaugeFunc("store_audit_degraded", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.cause != nil {
			return 1
		}
		return 0
	}, "dir", dir)
	reg.GaugeFunc("store_audit_buffered", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.buffered))
	}, "dir", dir)
	reg.CounterFunc("store_audit_shed_total", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.shed)
	}, "dir", dir)
	return s, nil
}

// verifyRange walks records [from, to) checking linkage and content
// hashes; it leaves the hash of the last verified record in head (when
// non-nil) and returns the seq of the first bad record on failure.
//
// Each record is first proven from its wire bytes, without decoding
// (audit.VerifyRecordBinary). What that cannot prove takes verifyDecoded,
// which alone produces refusals, bad seqs and error text.
func (s *AuditStore) verifyRange(from, to uint64, head *[32]byte) (uint64, error) {
	if head == nil {
		head = new([32]byte)
	}
	var prev *[32]byte // the last verified hash; nil before the first record
	bad := uint64(0)
	err := s.w.ReadSeq(from, to, func(e Entry) error {
		seq, p, h, ok := audit.VerifyRecordBinary(e.Payload)
		if !ok || seq != e.Seq || (prev != nil && p != *prev) {
			var err error
			if h, err = verifyDecoded(e, prev); err != nil {
				bad = e.Seq
				return err
			}
		}
		*head, prev = h, head
		return nil
	})
	return bad, err
}

// verifyDecoded checks one record in full — decode, seq, then the chain
// rule (audit.VerifyRecord) — and returns its hash.
func verifyDecoded(e Entry, prev *[32]byte) ([32]byte, error) {
	r, err := audit.DecodeRecordBinary(e.Payload)
	if err != nil {
		return r.Hash, err
	}
	if r.Seq != e.Seq {
		return r.Hash, fmt.Errorf("%w: frame seq %d carries record seq %d", audit.ErrChainBroken, e.Seq, r.Seq)
	}
	return r.Hash, audit.VerifyRecord(&r, prev)
}

// Verify re-checks the whole persisted chain, returning the sequence
// number of the first bad record, or -1 with a nil error when intact —
// the disk-tier analogue of audit.Log.Verify.
func (s *AuditStore) Verify() (int64, error) {
	if bad, err := s.verifyRange(s.w.FirstSeq(), 0, nil); err != nil {
		return int64(bad), err
	}
	return -1, nil
}

// Append persists one completed (hashed, chained) record. The record must
// continue the persisted chain: its Seq and PrevHash are checked against
// the store head before it is enqueued. Durability follows on the next
// group commit; call Sync to wait for it.
//
// A WAL I/O failure does not wedge the caller: the store degrades (see
// ErrDegraded) — the record is held in a bounded in-memory buffer (shed
// with a counter beyond the bound), the chain head still advances so
// subsequent records keep linking, and the sticky degraded error is
// returned (and from every later Append and Sync) so callers learn the
// evidence trail is no longer durable.
func (s *AuditStore) Append(r audit.Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Seq != s.nextSeq {
		return fmt.Errorf("%w: record seq %d, store expects %d", ErrChainBoundary, r.Seq, s.nextSeq)
	}
	if r.PrevHash != s.lastHash {
		// Covers the empty store too: the chain's first record carries a
		// zero PrevHash, which is exactly the zero-value head.
		return fmt.Errorf("%w: record %d does not link to persisted head", ErrChainBoundary, r.Seq)
	}
	if s.cause == nil {
		s.buf = audit.AppendRecordBinary(s.buf[:0], &r)
		if _, err := s.w.Append(r.Time, s.buf); err != nil {
			if errors.Is(err, ErrClosed) {
				return err // normal shutdown, not degradation
			}
			s.degradeLocked(err)
		}
	}
	s.nextSeq = r.Seq + 1
	s.lastHash = r.Hash
	if s.cause != nil {
		if len(s.buffered) < maxDegradedBuffer {
			s.buffered = append(s.buffered, r)
		} else {
			s.shed++
		}
		return s.degradedErrLocked()
	}
	return nil
}

// Sync blocks until every appended record is durable. On a degraded
// store it returns the sticky typed ErrDegraded wrapping the root cause,
// so waiters that believed their records durable find out they are not.
func (s *AuditStore) Sync() error {
	err := s.w.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil && !errors.Is(err, ErrClosed) {
		s.degradeLocked(err)
	}
	if s.cause != nil {
		return s.degradedErrLocked()
	}
	return err
}

// degradeLocked flips the store into degraded mode (first cause wins);
// s.mu must be held.
func (s *AuditStore) degradeLocked(cause error) {
	if s.cause == nil {
		s.cause = cause
	}
}

// degradedErrLocked renders the sticky typed error; s.mu must be held
// and s.cause non-nil.
func (s *AuditStore) degradedErrLocked() error {
	return fmt.Errorf("%w: %w", ErrDegraded, s.cause)
}

// Health describes the store's degradation state for the operator-facing
// health ladder (core.Domain.Health aggregates it).
type Health struct {
	// Degraded reports that persistence has failed and the store is
	// buffering in memory; Cause is the root I/O error.
	Degraded bool
	Cause    error
	// Buffered counts chain records held only in memory; Shed counts
	// records dropped because the buffer was full.
	Buffered int
	Shed     uint64
}

// Health snapshots the store's degradation state.
func (s *AuditStore) Health() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Health{
		Degraded: s.cause != nil,
		Cause:    s.cause,
		Buffered: len(s.buffered),
		Shed:     s.shed,
	}
}

// BufferedRecords returns a copy of the records a degraded store is
// holding in memory (tooling and tests; empty on a healthy store).
func (s *AuditStore) BufferedRecords() []audit.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]audit.Record, len(s.buffered))
	copy(out, s.buffered)
	return out
}

// Redact overwrites the persisted record at seq with its chain-preserving
// tombstone (see audit.Record.Redact): payload zeroed, sequence and hashes
// intact, so Verify still passes end to end while the data is gone. It
// returns the number of records actually tombstoned (0 when the record was
// already redacted). note is retained in the tombstone as erasure
// evidence.
func (s *AuditStore) Redact(seq uint64, note string) (int, error) {
	return s.RedactMany([]uint64{seq}, note)
}

// RedactMany tombstones every listed record in one pass — each affected
// WAL segment is rewritten once, so batch erasures (a retention sweep, a
// whole-tag erasure request) stay proportional to segment count, not
// record count. Already-redacted records are skipped. Returns the number
// of records newly tombstoned.
func (s *AuditStore) RedactMany(seqs []uint64, note string) (int, error) {
	changed := 0
	err := s.w.RedactMany(seqs, func(_ uint64, old []byte) ([]byte, error) {
		r, err := audit.DecodeRecordBinary(old)
		if err != nil {
			return nil, err
		}
		if r.Redacted {
			return old, nil
		}
		t := r.Redact(note)
		changed++
		return audit.AppendRecordBinary(nil, &t), nil
	})
	return changed, err
}

// Pin protects the segment holding seq from retention until the returned
// release runs — the guard a pending (scheduled but not yet executed)
// tombstone takes so MaxSegments pruning cannot race it.
func (s *AuditStore) Pin(seq uint64) (release func()) { return s.w.Pin(seq) }

// AttachLog wires the store under an in-memory audit.Log: the log is
// primed with the recovered chain head (so its first new record links to
// the last persisted one) and every record it commits is appended here via
// a sink. The log must be freshly created; attach before ingest begins.
func (s *AuditStore) AttachLog(l *audit.Log) error {
	if err := l.Restore(s.NextSeq(), s.HeadHash()); err != nil {
		return err
	}
	l.AddSink(func(r audit.Record) {
		// Sinks run serialised in chain order; an I/O failure surfaces on
		// the next Sync/Offload rather than on the enforcement hot path.
		_ = s.Append(r)
	})
	return nil
}

// VerifyAgainst checks the chain across the memory/disk boundary. The log
// normally runs ahead of (or level with) the persisted head, with the
// overlap region identical on both tiers; the check anchors on the record
// straddling the boundary: the log's record at the store's head sequence
// must link back to the persisted head hash.
func (s *AuditStore) VerifyAgainst(l *audit.Log) error {
	logNext, logHead := l.Checkpoint() // flushes the log, draining sinks into the store
	if err := s.Sync(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nextSeq == 0 {
		return nil // nothing persisted yet; any log state is consistent
	}
	switch {
	case logNext < s.nextSeq:
		return fmt.Errorf("%w: store head at seq %d but log has only committed up to %d",
			ErrChainBoundary, s.nextSeq, logNext)
	case logNext == s.nextSeq:
		if logHead != s.lastHash {
			return fmt.Errorf("%w: log head diverges from persisted head at seq %d",
				ErrChainBoundary, s.nextSeq)
		}
		return nil
	default:
		boundary, err := l.Get(s.nextSeq)
		if err != nil {
			return fmt.Errorf("%w: boundary record %d unavailable in memory: %v",
				ErrChainBoundary, s.nextSeq, err)
		}
		if boundary.PrevHash != s.lastHash {
			return fmt.Errorf("%w: record %d does not link to persisted head",
				ErrChainBoundary, s.nextSeq)
		}
		return nil
	}
}

// Offload makes the memory→disk tiering explicit: it waits until every
// record the log has committed is durable here, then prunes the log's
// in-memory copies of them — the store is where the pruned range lives
// on. It returns the number of records dropped from memory.
func (s *AuditStore) Offload(l *audit.Log) (int, error) {
	nextSeq, _ := l.Checkpoint()
	if err := s.Sync(); err != nil {
		return 0, err
	}
	durable := s.w.DurableSeq()
	upto := nextSeq
	if durable < upto {
		upto = durable
	}
	return l.Prune(upto), nil
}

// Records materialises records [from, to) (to == 0 means the end). Large
// stores should prefer the streaming Read.
func (s *AuditStore) Records(from, to uint64) ([]audit.Record, error) {
	var out []audit.Record
	err := s.Read(from, to, func(r audit.Record) error {
		out = append(out, r)
		return nil
	})
	return out, err
}

// Read streams records [from, to) in sequence order.
func (s *AuditStore) Read(from, to uint64, fn func(audit.Record) error) error {
	return s.w.ReadSeq(from, to, func(e Entry) error {
		r, err := audit.DecodeRecordBinary(e.Payload)
		if err != nil {
			return err
		}
		return fn(r)
	})
}

// NextSeq returns the sequence number the next appended record must carry.
func (s *AuditStore) NextSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextSeq
}

// HeadHash returns the hash of the last persisted record.
func (s *AuditStore) HeadHash() [32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastHash
}

// FirstSeq returns the oldest persisted sequence number.
func (s *AuditStore) FirstSeq() uint64 { return s.w.FirstSeq() }

// Len returns the number of committed records on disk.
func (s *AuditStore) Len() int { return int(s.w.DurableSeq() - s.w.FirstSeq()) }

// WAL exposes the underlying log (segment counts, pruning, direct reads).
func (s *AuditStore) WAL() *WAL { return s.w }

// Close syncs and closes the store.
func (s *AuditStore) Close() error { return s.w.Close() }
