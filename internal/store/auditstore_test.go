package store

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/ifc"
)

// rewriteRecordNote rewrites the record with the given seq in place,
// changing its Note and refreshing the frame CRC — a structurally valid
// tamper only the hash chain can detect.
func rewriteRecordNote(dir string, seq uint64, note string) (bool, error) {
	files, err := walFiles(dir)
	if err != nil {
		return false, err
	}
	for _, name := range files {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return false, err
		}
		if _, err := parseSegHeader(data); err != nil {
			return false, err
		}
		out := append([]byte(nil), data[:segHeaderLen]...)
		off := segHeaderLen
		found := false
		for off < len(data) {
			fr, err := parseFrame(data[off:])
			if err != nil {
				return false, err
			}
			if fr.seq == seq {
				r, err := audit.DecodeRecordBinary(fr.payload)
				if err != nil {
					return false, err
				}
				r.Note = note
				out = appendFrame(out, fr.seq, fr.unixNano, audit.AppendRecordBinary(nil, &r))
				found = true
			} else {
				out = append(out, data[off:off+fr.size]...)
			}
			off += fr.size
		}
		if found {
			return true, os.WriteFile(path, out, 0o644)
		}
	}
	return false, nil
}

func testClock() func() time.Time {
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func flowRec(src, dst string) audit.Record {
	return audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging,
		Src: ifc.EntityID(src), Dst: ifc.EntityID(dst),
		SrcCtx: ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil),
		DstCtx: ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"hosp"}),
		DataID: src + "->" + dst, Agent: "hospital", Note: "ok",
	}
}

// commit stages r and returns it as committed. Checkpoint flushes (and so
// runs the log's sinks), so in a single-producer test the newest record
// is r.
func commit(t *testing.T, l *audit.Log, r audit.Record) audit.Record {
	t.Helper()
	l.AppendAsync(r)
	next, _ := l.Checkpoint()
	got, err := l.Get(next - 1)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRecordBinaryRoundTrip(t *testing.T) {
	l := audit.NewLog(testClock())
	want := commit(t, l, flowRec("a", "b"))

	buf := audit.AppendRecordBinary(nil, &want)
	got, err := audit.DecodeRecordBinary(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != want.Seq || got.Kind != want.Kind || got.Layer != want.Layer ||
		got.Src != want.Src || got.Dst != want.Dst || got.DataID != want.DataID ||
		got.Agent != want.Agent || got.Note != want.Note ||
		!got.Time.Equal(want.Time) ||
		!got.SrcCtx.Equal(want.SrcCtx) || !got.DstCtx.Equal(want.DstCtx) {
		t.Fatalf("round trip lost content:\n got %+v\nwant %+v", got, want)
	}
	if got.Hash != want.Hash || got.PrevHash != want.PrevHash {
		t.Fatal("hashes lost in round trip")
	}
	if audit.HashRecord(&got) != got.Hash {
		t.Fatal("decoded record does not re-hash to its stored hash")
	}
	// Truncations never panic and always error.
	for i := 0; i < len(buf); i++ {
		if _, err := audit.DecodeRecordBinary(buf[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
}

func TestAuditStorePersistsAndRecoversChain(t *testing.T) {
	dir := t.TempDir()
	clock := testClock()

	s, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(clock)
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		l.AppendAsync(flowRec("sensor", "analyser"))
	}
	headSeq, headHash := l.Checkpoint()
	if err := s.VerifyAgainst(l); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen and verify the recovered chain matches the
	// pre-crash in-memory head exactly.
	s2, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NextSeq() != headSeq {
		t.Fatalf("recovered NextSeq %d, want %d", s2.NextSeq(), headSeq)
	}
	if s2.HeadHash() != headHash {
		t.Fatal("recovered head hash diverges from pre-restart log head")
	}
	if bad, err := s2.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}

	// A fresh log continues the chain across the boundary.
	l2 := audit.NewLog(clock)
	if err := s2.AttachLog(l2); err != nil {
		t.Fatal(err)
	}
	l2.AppendAsync(flowRec("analyser", "archive"))
	if err := s2.VerifyAgainst(l2); err != nil {
		t.Fatal(err)
	}
	// And the persisted segment chains into the retained records.
	disk, err := s2.Records(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	retained := l2.Select(nil)
	if err := audit.VerifySegment(disk[:25], &retained[0]); err != nil {
		t.Fatalf("cross-boundary segment verify: %v", err)
	}
}

func TestAuditStoreOffload(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenAudit(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := audit.NewLog(testClock())
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.AppendAsync(flowRec("a", "b"))
	}
	dropped, err := s.Offload(l)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 10 {
		t.Fatalf("offloaded %d records, want 10", dropped)
	}
	if l.Len() != 0 {
		t.Fatalf("log retains %d records after offload", l.Len())
	}
	// The log keeps accepting records and the boundary still verifies:
	// memory is a cache, disk is the archive.
	l.AppendAsync(flowRec("b", "c"))
	if err := s.VerifyAgainst(l); err != nil {
		t.Fatal(err)
	}
	if recs, err := s.Records(0, 0); err != nil || len(recs) != 11 {
		t.Fatalf("disk holds %d records (%v), want 11", len(recs), err)
	}
	if bad, err := s.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}

func TestAuditStoreRejectsChainBreaks(t *testing.T) {
	s, err := OpenAudit(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := audit.NewLog(testClock())
	r0 := commit(t, l, flowRec("a", "b"))
	if err := s.Append(r0); err != nil {
		t.Fatal(err)
	}
	// Wrong seq.
	bad := commit(t, l, flowRec("b", "c"))
	bad.Seq = 7
	if err := s.Append(bad); err == nil {
		t.Fatal("wrong-seq record accepted")
	}
	// Wrong linkage.
	bad = commit(t, l, flowRec("c", "d"))
	bad.Seq = s.NextSeq()
	bad.PrevHash = [32]byte{1}
	if err := s.Append(bad); err == nil {
		t.Fatal("wrong-linkage record accepted")
	}
}

func TestAuditStoreRecoveryDetectsTamper(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenAudit(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(testClock())
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		l.AppendAsync(flowRec("a", "b"))
	}
	l.Flush()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tamper with a record *payload* while refreshing its CRC, so the WAL
	// layer sees a structurally valid frame and only the hash chain can
	// catch the edit.
	tampered, err := rewriteRecordNote(dir, 5, "doctored")
	if err != nil {
		t.Fatal(err)
	}
	if !tampered {
		t.Fatal("tamper helper found nothing to rewrite")
	}
	if _, err := OpenAudit(dir, Options{SegmentBytes: 512}); err == nil {
		t.Fatal("tampered store opened with intact chain")
	}
}
