package main

import (
	"os"
	"path/filepath"
	"testing"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/store"
)

// writeLog exports a small log with one allowed flow, one denial and one
// break-glass record.
func writeLog(t *testing.T) string {
	t.Helper()
	l := audit.NewLog(nil)
	l.AppendAsync(audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging,
		Src: "sensor", Dst: "analyser", DataID: "r1", Agent: ifc.PrincipalID("hospital"),
	})
	l.AppendAsync(audit.Record{
		Kind: audit.FlowDenied, Layer: audit.LayerMessaging,
		Src: "sensor", Dst: "advertiser", DataID: "r1", Note: "IFC denial",
	})
	l.AppendAsync(audit.Record{Kind: audit.BreakGlass, Note: "override"})
	data, err := audit.ExportJSON(l)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "log.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunVerifyAndReport(t *testing.T) {
	path := writeLog(t)
	if code := run([]string{"verify", path}); code != 0 {
		t.Fatalf("verify exit = %d", code)
	}
	if code := run([]string{"report", path}); code != 0 {
		t.Fatalf("report exit = %d", code)
	}
	if code := run([]string{"dot", path}); code != 0 {
		t.Fatalf("dot exit = %d", code)
	}
}

func TestRunVerifyTampered(t *testing.T) {
	path := writeLog(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := audit.ImportRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	recs[0].Note = "doctored"
	doctored := filepath.Join(t.TempDir(), "bad.json")
	out, err := audit.ExportJSONRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, out, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"verify", doctored}); code != 1 {
		t.Fatalf("tampered verify exit = %d", code)
	}
	if code := run([]string{"report", doctored}); code != 1 {
		t.Fatalf("tampered report exit = %d", code)
	}
}

func TestRunQueries(t *testing.T) {
	path := writeLog(t)
	if code := run([]string{"descendants", path, "r1"}); code != 0 {
		t.Fatalf("descendants exit = %d", code)
	}
	if code := run([]string{"ancestry", path, "analyser"}); code != 0 {
		t.Fatalf("ancestry exit = %d", code)
	}
	if code := run([]string{"agents", path, "analyser"}); code != 0 {
		t.Fatalf("agents exit = %d", code)
	}
	if code := run([]string{"ancestry", path, "ghost"}); code != 1 {
		t.Fatalf("ghost query exit = %d", code)
	}
	if code := run([]string{"ancestry", path}); code != 2 {
		t.Fatalf("missing node arg exit = %d", code)
	}
}

func TestRunUsageErrors(t *testing.T) {
	if code := run(nil); code != 2 {
		t.Fatalf("no args = %d", code)
	}
	if code := run([]string{"verify", "/nonexistent"}); code != 1 {
		t.Fatalf("missing file = %d", code)
	}
	garbage := filepath.Join(t.TempDir(), "g.json")
	if err := os.WriteFile(garbage, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"verify", garbage}); code != 1 {
		t.Fatalf("garbage = %d", code)
	}
	if code := run([]string{"bogus", writeLog(t)}); code != 2 {
		t.Fatalf("unknown cmd = %d", code)
	}
}

// writeStore persists the same small trail into a durable store directory
// (under an audit/ subdirectory, as lciotd lays it out).
func writeStore(t *testing.T) string {
	t.Helper()
	dataDir := t.TempDir()
	// Tiny segments so the trail spans several files (sealed + active).
	s, err := store.OpenAudit(filepath.Join(dataDir, "audit"), store.Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	l := audit.NewLog(nil)
	if err := s.AttachLog(l); err != nil {
		t.Fatal(err)
	}
	l.AppendAsync(audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging,
		Src: "sensor", Dst: "analyser", DataID: "r1", Agent: ifc.PrincipalID("hospital"),
	})
	l.AppendAsync(audit.Record{
		Kind: audit.FlowDenied, Layer: audit.LayerMessaging,
		Src: "sensor", Dst: "advertiser", DataID: "r1", Note: "IFC denial",
	})
	for i := 0; i < 10; i++ {
		l.AppendAsync(audit.Record{
			Kind: audit.FlowAllowed, Layer: audit.LayerMessaging,
			Src: "analyser", Dst: "archive", DataID: "r1", Note: "padding so segments rotate",
		})
	}
	l.Flush()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if s.WAL().Segments() < 2 {
		t.Fatal("test store did not rotate; tamper test needs a sealed segment")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dataDir
}

func TestRunStoreDirectory(t *testing.T) {
	dir := writeStore(t)
	// Both the data dir and the audit/ subdirectory are accepted.
	if code := run([]string{"verify", dir}); code != 0 {
		t.Fatalf("verify store dir exit = %d", code)
	}
	if code := run([]string{"verify", filepath.Join(dir, "audit")}); code != 0 {
		t.Fatalf("verify audit subdir exit = %d", code)
	}
	if code := run([]string{"report", dir}); code != 0 {
		t.Fatalf("report store dir exit = %d", code)
	}
	if code := run([]string{"dot", dir}); code != 0 {
		t.Fatalf("dot store dir exit = %d", code)
	}
	if code := run([]string{"descendants", dir, "r1"}); code != 0 {
		t.Fatalf("descendants store dir exit = %d", code)
	}
}

func TestRunStoreDirectoryTampered(t *testing.T) {
	dir := writeStore(t)
	// Flip one byte in a *sealed* segment: only the final segment may
	// carry a torn tail, so recovery must refuse the store outright.
	seg := filepath.Join(dir, "audit")
	names, err := filepath.Glob(filepath.Join(seg, "wal-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(names[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"verify", dir}); code != 1 {
		t.Fatalf("tampered store verify exit = %d", code)
	}
}
