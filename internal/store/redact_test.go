package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"lciot/internal/audit"
)

// fillSegments appends records until the WAL has rotated into at least n
// segments.
func fillSegments(t *testing.T, w *WAL, n int) {
	t.Helper()
	payload := bytes.Repeat([]byte{0xAB}, 256)
	for i := 0; w.Segments() < n; i++ {
		if _, err := w.Append(time.Unix(int64(i), 0), payload); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if i > 100000 {
			t.Fatal("segments never rotated")
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestWALRedactRewritesInPlace checks that Redact replaces exactly the
// targeted payload, preserves every other frame, and survives reopen.
func TestWALRedactRewritesInPlace(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := w.Append(time.Unix(int64(i), 0), []byte(fmt.Sprintf("payload-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RedactMany([]uint64{17}, func(_ uint64, old []byte) ([]byte, error) {
		if string(old) != "payload-017" {
			return nil, fmt.Errorf("redact saw %q", old)
		}
		return []byte("tombstone"), nil
	}); err != nil {
		t.Fatal(err)
	}
	check := func(w *WAL, want int) {
		t.Helper()
		seen := 0
		err := w.ReadSeq(0, 0, func(e Entry) error {
			wantP := fmt.Sprintf("payload-%03d", e.Seq)
			if e.Seq == 17 {
				wantP = "tombstone"
			}
			if string(e.Payload) != wantP {
				return fmt.Errorf("seq %d: payload %q, want %q", e.Seq, e.Payload, wantP)
			}
			seen++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != want {
			t.Fatalf("saw %d records, want %d", seen, want)
		}
	}
	check(w, 40)
	// Appending after a redaction of the active segment must still work:
	// the active handle was reattached at the rewritten tail.
	if _, err := w.Append(time.Unix(40, 0), []byte("payload-040")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery must accept the rewritten segment.
	w2, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	check(w2, 41)
}

// TestWALRedactRange rejects uncommitted and pruned targets.
func TestWALRedactRange(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(time.Now(), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.RedactMany([]uint64{99}, func(_ uint64, b []byte) ([]byte, error) { return b, nil }); !errors.Is(err, ErrNotRetained) {
		t.Fatalf("redact beyond head = %v, want ErrNotRetained", err)
	}
}

// TestMaxSegmentsRespectsPins is the regression test for the
// retention/redaction interplay: MaxSegments pruning must not drop a
// segment still referenced by a pending tombstone.
func TestMaxSegmentsRespectsPins(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 2 << 10, MaxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillSegments(t, w, 2)
	// Pin a record in the oldest segment, then keep appending far past the
	// retention bound.
	pinned := w.FirstSeq()
	release := w.Pin(pinned)
	fillSegments(t, w, 8)
	if got := w.FirstSeq(); got > pinned {
		t.Fatalf("retention dropped pinned seq %d (first retained now %d)", pinned, got)
	}
	// The pinned record must still be readable (and redactable).
	found := false
	if err := w.ReadSeq(pinned, pinned+1, func(e Entry) error { found = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("pinned seq %d unreadable", pinned)
	}
	// Releasing the pin lets the next rotation apply retention again: keep
	// appending until a rotation happens and check the backlog collapsed
	// back to the bound.
	release()
	release() // idempotent
	before := w.Segments()
	payload := bytes.Repeat([]byte{0xCD}, 256)
	for i := 0; w.Segments() >= before; i++ {
		if _, err := w.Append(time.Now(), payload); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if i > 100000 {
			t.Fatalf("retention never resumed after release: %d segments", w.Segments())
		}
	}
	if got := w.Segments(); got > 3 {
		t.Fatalf("retention resumed but kept %d segments, want <= 3", got)
	}
	// Prune must honour pins the same way.
	p := w.Pin(w.FirstSeq())
	defer p()
	if _, err := w.Prune(w.NextSeq()); err != nil {
		t.Fatal(err)
	}
	if got := w.FirstSeq(); got != 0 && w.Segments() > 0 {
		// The pinned front segment must have survived the prune.
		first := w.FirstSeq()
		if first > w.NextSeq() {
			t.Fatalf("prune dropped pinned segment: first %d", first)
		}
	}
}

// TestAuditStoreRedactTombstone checks the full disk-tier erasure: redact
// a record, verify the chain end to end, reopen, verify again.
func TestAuditStoreRedactTombstone(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	log := audit.NewLog(nil)
	if err := s.AttachLog(log); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		log.AppendAsync(audit.Record{
			Kind: audit.FlowAllowed, Layer: audit.LayerMessaging, Domain: "d",
			Src: "sensor", Dst: "analyser", DataID: fmt.Sprintf("datum-%d", i),
			Note: "delivery",
		})
	}
	log.Flush()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	n, err := s.Redact(7, "retention expired")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("redacted %d records, want 1", n)
	}
	// Idempotent.
	if n, err = s.Redact(7, "again"); err != nil || n != 0 {
		t.Fatalf("second redaction = (%d, %v), want (0, nil)", n, err)
	}
	if bad, err := s.Verify(); err != nil {
		t.Fatalf("chain broken at %d after redaction: %v", bad, err)
	}
	recs, err := s.Records(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[7].Redacted || recs[7].DataID != "" || recs[7].Src != "" {
		t.Fatalf("record 7 not tombstoned: %+v", recs[7])
	}
	if recs[8].PrevHash != recs[7].Hash {
		t.Fatal("tombstone broke the chain linkage")
	}
	if err := audit.VerifySegment(recs, nil); err != nil {
		t.Fatalf("VerifySegment over tombstoned set: %v", err)
	}
	s.Close()

	// Recovery must verify the redacted chain and keep appending on it.
	s2, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after redaction: %v", err)
	}
	defer s2.Close()
	log2 := audit.NewLog(nil)
	if err := s2.AttachLog(log2); err != nil {
		t.Fatal(err)
	}
	log2.AppendAsync(audit.Record{Kind: audit.Reconfiguration, Domain: "d", Note: "post-redaction boot"})
	log2.Flush()
	if err := s2.Sync(); err != nil {
		t.Fatal(err)
	}
	if bad, err := s2.Verify(); err != nil {
		t.Fatalf("chain broken at %d after reopen+append: %v", bad, err)
	}
}

// TestAuditStoreNoOpRedactLeavesSegment: erasing records that are
// already tombstoned changes no payload, so the segment holding them is
// not rewritten. It keeps its inode and its bytes, and the active handle
// still appends to it.
func TestAuditStoreNoOpRedactLeavesSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	log := audit.NewLog(nil)
	if err := s.AttachLog(log); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		log.AppendAsync(audit.Record{
			Kind: audit.FlowAllowed, Layer: audit.LayerMessaging, Domain: "d",
			Src: "sensor", Dst: "analyser", DataID: fmt.Sprintf("datum-%d", i),
		})
	}
	log.Flush()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, err := s.RedactMany([]uint64{3, 7}, "retention expired"); err != nil || n != 2 {
		t.Fatalf("first erasure = (%d, %v), want (2, nil)", n, err)
	}
	names, err := walFiles(dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("segments = %v, %v; want one", names, err)
	}
	path := filepath.Join(dir, names[0])
	stat := func() (os.FileInfo, []byte) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi, b
	}
	fiBefore, before := stat()

	if n, err := s.RedactMany([]uint64{3, 7}, "again"); err != nil || n != 0 {
		t.Fatalf("repeat erasure = (%d, %v), want (0, nil)", n, err)
	}
	fiAfter, after := stat()
	if !os.SameFile(fiBefore, fiAfter) {
		t.Fatal("a redaction that changed nothing replaced the segment file")
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a redaction that changed nothing changed the segment's bytes")
	}
	if _, err := os.Stat(path + ".redact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind: %v", err)
	}
	log.AppendAsync(audit.Record{Kind: audit.Reconfiguration, Domain: "d", Note: "after"})
	log.Flush()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if bad, err := s.Verify(); err != nil {
		t.Fatalf("chain broken at %d: %v", bad, err)
	}
	if s.Len() != 21 {
		t.Fatalf("store holds %d records, want 21", s.Len())
	}
}

// allocated returns the bytes the process allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWALLargeSegmentStreams opens a WAL over a segment of more than
// 24 MiB and redacts two of its records: recovery and redaction both
// stream the segment through the walk buffer, so neither allocates
// anything near the segment's size.
func TestWALLargeSegmentStreams(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 4<<10)
	const n = 6200
	for i := 0; i < n; i++ {
		if _, err := w.Append(time.Unix(int64(i), 0), payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, segName(0)))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() < 24<<20 {
		t.Fatalf("segment is %d bytes, want at least 24 MiB", fi.Size())
	}
	const budget = 4 << 20

	if got := allocated(func() {
		if w, err = Open(dir, Options{NoSync: true}); err != nil {
			t.Fatal(err)
		}
	}); got >= budget {
		t.Errorf("Open over a %d-byte segment allocated %d bytes, want < %d", fi.Size(), got, budget)
	}
	defer w.Close()
	if w.NextSeq() != n {
		t.Fatalf("NextSeq %d after reopen, want %d", w.NextSeq(), n)
	}

	targets := []uint64{17, n - 3}
	if got := allocated(func() {
		if err := w.RedactMany(targets, func(uint64, []byte) ([]byte, error) {
			return []byte("tombstone"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}); got >= budget {
		t.Errorf("RedactMany over a %d-byte segment allocated %d bytes, want < %d", fi.Size(), got, budget)
	}
	for _, seq := range targets {
		if got := collect(t, w, seq, seq+1); len(got) != 1 || string(got[0].Payload) != "tombstone" {
			t.Fatalf("seq %d after redaction: %d entries", seq, len(got))
		}
	}
}

// TestWALTornLengthReadsNoFurther opens a WAL whose last frame claims a
// payload far longer than the file holds: recovery truncates it as torn
// without allocating a buffer for the claimed length.
func TestWALTornLengthReadsNoFurther(t *testing.T) {
	dir := t.TempDir()
	torn := appendFrame(nil, 1, 2, []byte("torn"))
	binary.BigEndian.PutUint32(torn, maxPayload)
	seg := appendFrame(appendSegHeader(nil, 0), 0, 1, []byte("intact"))
	if err := os.WriteFile(filepath.Join(dir, segName(0)), append(seg, torn...), 0o644); err != nil {
		t.Fatal(err)
	}
	var w *WAL
	var err error
	if got := allocated(func() { w, err = Open(dir, Options{NoSync: true}) }); got >= 4<<20 {
		t.Errorf("Open over a torn %d-byte length allocated %d bytes", maxPayload, got)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.NextSeq() != 1 {
		t.Fatalf("NextSeq %d after truncating the torn frame, want 1", w.NextSeq())
	}
}

// TestWALRedactRefusesCorruptSegment flips one byte in the body of a
// sealed segment, then of the active one: RedactMany must return
// ErrCorrupt, leave the segment byte-identical with no temporary file
// behind, and leave the WAL appending and reading as before.
func TestWALRedactRefusesCorruptSegment(t *testing.T) {
	for _, active := range []bool{false, true} {
		t.Run(fmt.Sprintf("active=%v", active), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{SegmentBytes: 4 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			appendN(t, w, 0, 400)
			seg := w.snapshotSegs()[0]
			if active {
				seg = w.snapshotSegs()[w.Segments()-1]
			}
			if seg.count < 3 {
				t.Fatalf("segment holds %d records, want at least 3", seg.count)
			}
			// Damage the middle of the segment; the redaction target
			// precedes it, so the rewrite has begun when the walk hits it.
			f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			at := seg.size / 2
			b := []byte{0}
			if _, err := f.ReadAt(b, at); err != nil {
				t.Fatal(err)
			}
			b[0] ^= 0x40
			if _, err := f.WriteAt(b, at); err != nil {
				t.Fatal(err)
			}
			f.Close()
			damaged, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}

			err = w.RedactMany([]uint64{seg.firstSeq}, func(uint64, []byte) ([]byte, error) { return []byte("tombstone"), nil })
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("redact over a damaged segment = %v, want ErrCorrupt", err)
			}
			after, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, damaged) {
				t.Fatal("a refused redaction changed the segment")
			}
			if _, err := os.Stat(seg.path + ".redact"); !os.IsNotExist(err) {
				t.Fatalf("temporary file left behind: %v", err)
			}

			next := w.NextSeq()
			seq, err := w.Append(time.Unix(5000, 0), []byte("after"))
			if err != nil || seq != next {
				t.Fatalf("append after refusal = (%d, %v), want seq %d", seq, err, next)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := collect(t, w, seg.firstSeq, seg.firstSeq+1); len(got) != 1 ||
				string(got[0].Payload) != fmt.Sprintf("payload-%04d", seg.firstSeq) {
				t.Fatalf("target after refusal = %+v, want its original payload", got)
			}
			if !active {
				if got := collect(t, w, seq, 0); len(got) != 1 || string(got[0].Payload) != "after" {
					t.Fatalf("appended record reads back as %+v", got)
				}
				return
			}
			// The active segment's handle was kept: the new frame lands
			// right after the damaged bytes, which stay as they were.
			grown, err := os.ReadFile(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if want := appendFrame(damaged, seq, time.Unix(5000, 0).UnixNano(), []byte("after")); !bytes.Equal(grown, want) {
				t.Fatalf("active segment after append is %d bytes, want the damaged %d plus one frame", len(grown), len(damaged))
			}
		})
	}
}
