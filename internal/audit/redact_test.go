package audit

import (
	"errors"
	"strings"
	"testing"
)

func redactTestLog(t *testing.T, n int) *Log {
	t.Helper()
	l := NewLog(nil)
	for i := 0; i < n; i++ {
		l.AppendAsync(Record{
			Kind: FlowAllowed, Layer: LayerMessaging, Domain: "d",
			Src: "sensor", Dst: "analyser", DataID: "datum", Note: "delivered",
		})
	}
	return l
}

// TestLogRedactKeepsChainVerifiable: tombstoning keeps the chain intact
// while the payload is gone.
func TestLogRedactKeepsChainVerifiable(t *testing.T) {
	l := redactTestLog(t, 5)
	if n := l.RedactMany([]uint64{2}, "retention expired"); n != 1 {
		t.Fatalf("RedactMany tombstoned %d records, want 1", n)
	}
	if bad, err := l.Verify(); err != nil {
		t.Fatalf("chain broken at %d: %v", bad, err)
	}
	r, err := l.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Redacted || r.DataID != "" || r.Src != "" || !strings.Contains(r.Note, "retention") {
		t.Fatalf("tombstone = %+v", r)
	}
	if err := VerifySegment(l.Select(nil), nil); err != nil {
		t.Fatalf("VerifySegment: %v", err)
	}
	// RedactMany skips out-of-range and already-redacted seqs.
	if n := l.RedactMany([]uint64{0, 2, 99}, "x"); n != 1 {
		t.Fatalf("RedactMany tombstoned %d, want 1", n)
	}
	if bad, err := l.Verify(); err != nil {
		t.Fatalf("chain broken at %d after RedactMany: %v", bad, err)
	}
}

// TestForgedTombstoneDetected: the Redacted flag exempts a record from
// the content-hash check, so verifiers must reject a "tombstone" that
// still carries payload — otherwise flipping the flag would allow
// arbitrary record forgery under an intact chain.
func TestForgedTombstoneDetected(t *testing.T) {
	l := redactTestLog(t, 4)
	recs := l.Select(nil)
	forged := append([]Record(nil), recs...)
	forged[1].Redacted = true
	forged[1].Note = "it never happened"
	// (payload fields Src/Dst/DataID deliberately kept)
	err := VerifySegment(forged, nil)
	if err == nil || !errors.Is(err, ErrChainBroken) {
		t.Fatalf("forged tombstone accepted: %v", err)
	}
	if !strings.Contains(err.Error(), "carries payload") {
		t.Fatalf("error = %v", err)
	}
	// A well-formed tombstone with a lying linkage is still caught.
	broken := append([]Record(nil), recs...)
	broken[2] = broken[2].Redact("x")
	broken[2].Hash[0] ^= 0xFF
	if err := VerifySegment(broken, nil); err == nil {
		t.Fatal("tombstone with broken linkage accepted")
	}
}
