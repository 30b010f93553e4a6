package audit

import (
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	l := NewLog(testClock())
	l.AppendAsync(flowRecord("a", "b", true))
	l.AppendAsync(flowRecord("b", "c", false))

	data, err := ExportJSON(l)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ImportRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("imported %d records", len(recs))
	}
	// Hashes survive the round trip, so the chain verifies offline.
	if err := VerifySegment(recs, nil); err != nil {
		t.Fatalf("imported segment: %v", err)
	}
	if recs[1].Kind != FlowDenied || recs[1].Src != "b" {
		t.Fatalf("record content lost: %+v", recs[1])
	}
	// Hashes are preserved bit-for-bit, not recomputed on import.
	orig := l.Select(nil)
	for i := range orig {
		if recs[i].Hash != orig[i].Hash || recs[i].PrevHash != orig[i].PrevHash {
			t.Fatalf("record %d hashes changed across the round trip", i)
		}
	}
	// Tampering with an imported record is detected.
	recs[0].Note = "doctored"
	if err := VerifySegment(recs, nil); err == nil {
		t.Fatal("tampered import verified")
	}
	if _, err := ImportRecords([]byte("{")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestPrunedSegmentExportImportVerify covers the offload path end to end:
// a pruned segment exported to JSON and re-imported still verifies —
// both against itself and against the first record the log retained —
// while any tampering with the imported copy is rejected.
func TestPrunedSegmentExportImportVerify(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 6; i++ {
		l.AppendAsync(flowRecord("a", "b", i%2 == 0))
	}
	segment := l.Select(func(r Record) bool { return r.Seq < 4 })
	if n := l.Prune(4); n != 4 || len(segment) != 4 {
		t.Fatalf("pruned %d records (segment %d)", n, len(segment))
	}

	data, err := ExportJSONRecords(segment)
	if err != nil {
		t.Fatal(err)
	}
	imported, err := ImportRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(imported) != 4 {
		t.Fatalf("imported %d records", len(imported))
	}

	// The imported segment verifies on its own...
	if err := VerifySegment(imported, nil); err != nil {
		t.Fatalf("pruned-then-imported segment: %v", err)
	}
	// ...and against the retained chain's first record, proving the
	// offloaded history and the live log are one continuous chain.
	retained := l.Select(nil)
	if err := VerifySegment(imported, &retained[0]); err != nil {
		t.Fatalf("segment does not chain into retained log: %v", err)
	}

	// Tampering anywhere in the imported copy is rejected: content...
	doctored := append([]Record(nil), imported...)
	doctored[2].Note = "doctored"
	if err := VerifySegment(doctored, nil); err == nil {
		t.Fatal("content-tampered segment verified")
	}
	// ...linkage...
	doctored = append([]Record(nil), imported...)
	doctored[2].PrevHash[0] ^= 1
	if err := VerifySegment(doctored, nil); err == nil {
		t.Fatal("linkage-tampered segment verified")
	}
	// ...and a segment spliced in front of the wrong follower.
	if err := VerifySegment(imported[:3], &retained[0]); err == nil {
		t.Fatal("mis-spliced segment verified against retained log")
	}
}
