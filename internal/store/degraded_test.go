package store

import (
	"errors"
	"syscall"
	"testing"

	"lciot/internal/audit"
	"lciot/internal/fault"
)

// TestAuditStoreDegradesOnWriteFailure drives the degradation ladder's
// first rung: a WAL write error (injected ENOSPC) must flip the store
// into degraded mode — sticky typed error from Sync and Append, chain
// head still advancing, records buffered in memory — instead of wedging
// group commit or dropping records silently.
func TestAuditStoreDegradesOnWriteFailure(t *testing.T) {
	defer fault.DisarmAll()
	s, err := OpenAudit(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(testClock())
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}

	fault.Arm("store.wal.write", fault.Always(fault.Action{Err: fault.Wrap(syscall.ENOSPC)}))
	for i := 0; i < 10; i++ {
		l.AppendAsync(flowRec("sensor", "analyser"))
	}
	l.Flush()
	err = s.Sync()
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync after write failure = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("degraded error does not wrap root cause: %v", err)
	}

	// The error is sticky and further appends keep the chain linked in
	// memory rather than vanishing.
	before := s.Health()
	r := commit(t, l, flowRec("sensor", "analyser"))
	h := s.Health()
	if !h.Degraded || !errors.Is(h.Cause, syscall.ENOSPC) {
		t.Fatalf("health = %+v, want degraded with ENOSPC cause", h)
	}
	if h.Buffered <= before.Buffered {
		t.Fatalf("buffered did not grow: %d -> %d", before.Buffered, h.Buffered)
	}
	if got := s.NextSeq(); got != r.Seq+1 {
		t.Fatalf("chain head did not advance: NextSeq %d, want %d", got, r.Seq+1)
	}
	recs := s.BufferedRecords()
	if len(recs) == 0 || recs[len(recs)-1].Hash != r.Hash {
		t.Fatal("buffered records do not end at the chain head")
	}
	if err := s.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("second Sync = %v, want sticky ErrDegraded", err)
	}
	_ = s.Close()
}

// TestAuditStoreDegradesOnOutsizedRecord: a record whose encoding is over
// the WAL's payload limit is a write failure like any other — the store
// degrades and buffers it, so the loss shows in Health instead of as a
// torn tail that recovery would truncate uncounted.
func TestAuditStoreDegradesOnOutsizedRecord(t *testing.T) {
	s, err := OpenAudit(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := audit.NewLog(testClock())
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	commit(t, l, flowRec("sensor", "analyser"))
	big := flowRec("sensor", "analyser")
	big.Note = string(make([]byte, maxPayload))
	r := commit(t, l, big)
	h := s.Health()
	if !h.Degraded || !errors.Is(h.Cause, ErrTooLarge) || h.Buffered != 1 {
		t.Fatalf("health = %+v, want degraded by ErrTooLarge with 1 record buffered", h)
	}
	if recs := s.BufferedRecords(); len(recs) != 1 || recs[0].Hash != r.Hash {
		t.Fatal("the outsized record is not the buffered one")
	}
	if err := s.Sync(); !errors.Is(err, ErrDegraded) || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Sync = %v, want ErrDegraded wrapping ErrTooLarge", err)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("store holds %d records on disk, want the 1 before the outsized one", n)
	}
}

// TestAuditStoreDegradedShedBound checks the buffer bound: beyond
// maxDegradedBuffer records are shed and counted, never buffered without
// bound and never dropped silently.
func TestAuditStoreDegradedShedBound(t *testing.T) {
	defer fault.DisarmAll()
	s, err := OpenAudit(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(testClock())
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	fault.Arm("store.wal.write", fault.Always(fault.Action{Err: fault.Wrap(syscall.ENOSPC)}))
	l.AppendAsync(flowRec("a", "b"))
	l.Flush()
	if err := s.Sync(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("Sync = %v, want ErrDegraded", err)
	}
	const extra = 5
	for i := 0; i < maxDegradedBuffer+extra; i++ {
		l.AppendAsync(flowRec("a", "b"))
	}
	l.Flush()
	h := s.Health()
	if h.Buffered != maxDegradedBuffer {
		t.Fatalf("buffered = %d, want %d", h.Buffered, maxDegradedBuffer)
	}
	if h.Shed < extra {
		t.Fatalf("shed = %d, want >= %d", h.Shed, extra)
	}
	// The head still tracks every record, shed or not: the chain stays
	// contiguous for whoever inspects it.
	next, _ := l.Checkpoint()
	if got := s.NextSeq(); got != next {
		t.Fatalf("NextSeq %d diverges from log head %d", got, next)
	}
	_ = s.Close()
}

// TestAuditStoreFsyncFailureDegrades exercises the fsync seam: an
// injected fsync error must degrade the store exactly like a failed
// write.
func TestAuditStoreFsyncFailureDegrades(t *testing.T) {
	defer fault.DisarmAll()
	s, err := OpenAudit(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(testClock())
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	fault.Arm("store.wal.fsync", fault.Always(fault.Action{Err: fault.Wrap(syscall.EIO)}))
	l.AppendAsync(flowRec("a", "b"))
	l.Flush()
	err = s.Sync()
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after fsync failure = %v, want ErrDegraded wrapping EIO", err)
	}
	_ = s.Close()
}

// TestAuditStoreCloseIsNotDegradation: ErrClosed is a normal shutdown
// signal, not an I/O failure — appending to a closed store must fail
// without flipping health to degraded.
func TestAuditStoreCloseIsNotDegradation(t *testing.T) {
	s, err := OpenAudit(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(testClock())
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	r := commit(t, l, flowRec("a", "b"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	next := audit.Record{Seq: r.Seq + 1, PrevHash: r.Hash}
	next.Hash = audit.HashRecord(&next)
	if err := s.Append(next); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if h := s.Health(); h.Degraded {
		t.Fatalf("closed store reports degraded: %+v", h)
	}
}
