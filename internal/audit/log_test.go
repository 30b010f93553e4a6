package audit

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"lciot/internal/ifc"
)

func testClock() func() time.Time {
	t := time.Unix(1700000000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func flowRecord(src, dst ifc.EntityID, allowed bool) Record {
	kind := FlowAllowed
	if !allowed {
		kind = FlowDenied
	}
	return Record{
		Kind: kind, Layer: LayerMessaging, Domain: "hospital",
		Src: src, Dst: dst, DataID: "d-" + string(src),
	}
}

// commit stages r and returns it as committed. Checkpoint flushes, so in
// a single-producer test the newest record is r.
func commit(t testing.TB, l *Log, r Record) Record {
	t.Helper()
	l.AppendAsync(r)
	next, _ := l.Checkpoint()
	got, err := l.Get(next - 1)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLogAppendAssignsSequenceAndChain(t *testing.T) {
	l := NewLog(testClock())
	r1 := commit(t, l, flowRecord("a", "b", true))
	r2 := commit(t, l, flowRecord("b", "c", true))

	if r1.Seq != 0 || r2.Seq != 1 {
		t.Fatalf("seqs = %d, %d", r1.Seq, r2.Seq)
	}
	if r2.PrevHash != r1.Hash {
		t.Fatal("records not chained")
	}
	if r1.Time.IsZero() || r2.Time.IsZero() {
		t.Fatal("timestamps not assigned")
	}
	if l.HeadHash() != r2.Hash {
		t.Fatal("head hash wrong")
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}

func TestLogDetectsTampering(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 10; i++ {
		l.AppendAsync(flowRecord("a", "b", true))
	}
	l.Flush()
	// Reach into the log and modify a record (simulated attacker).
	l.mu.Lock()
	l.at(4).Note = "doctored"
	l.mu.Unlock()

	bad, err := l.Verify()
	if !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Verify err = %v, want ErrChainBroken", err)
	}
	if bad != 4 {
		t.Fatalf("first bad seq = %d, want 4", bad)
	}
}

func TestLogDetectsRelink(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 5; i++ {
		l.AppendAsync(flowRecord("a", "b", true))
	}
	l.Flush()
	// Replace a record wholesale with a self-consistent one: linkage to the
	// successor must still break.
	l.mu.Lock()
	forged := flowRecord("x", "y", true)
	forged.Seq = 2
	forged.Time = time.Unix(1, 0)
	forged.PrevHash = l.at(1).Hash
	forged.Hash = computeHash(&forged)
	*l.at(2) = forged
	l.mu.Unlock()

	bad, err := l.Verify()
	if !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Verify err = %v", err)
	}
	if bad != 3 {
		t.Fatalf("first bad seq = %d, want 3 (successor unlinked)", bad)
	}
}

func TestLogGetAndSelect(t *testing.T) {
	l := NewLog(testClock())
	l.AppendAsync(flowRecord("a", "b", true))
	l.AppendAsync(flowRecord("m", "n", false))
	l.AppendAsync(flowRecord("x", "y", true))

	r, err := l.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind != FlowDenied {
		t.Fatalf("Get(1).Kind = %v", r.Kind)
	}
	if _, err := l.Get(99); err == nil {
		t.Fatal("Get beyond head succeeded")
	}
	denied := l.Select(func(r Record) bool { return r.Kind == FlowDenied })
	if len(denied) != 1 || denied[0].Src != "m" {
		t.Fatalf("Select denied = %v", denied)
	}
	if got := len(l.Select(nil)); got != 3 {
		t.Fatalf("Select(nil) = %d records", got)
	}
}

// TestLogSelectSizesToMatches: a filtered Select allocates for what it
// returns, not for the whole retained window; erasure calls it with a
// filter over every retained record.
func TestLogSelectSizesToMatches(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 10000; i++ {
		l.AppendAsync(flowRecord("a", "b", i != 5000))
	}
	l.Flush()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := l.Select(func(r Record) bool { return r.Kind == FlowDenied })
	runtime.ReadMemStats(&after)
	if len(got) != 1 || got[0].Seq != 5000 {
		t.Fatalf("Select matched %d records", len(got))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("Select of 1 record in 10000 allocated %d bytes, want < 64 KiB", grew)
	}
}

func TestLogPruneAndOffload(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 10; i++ {
		l.AppendAsync(flowRecord("a", "b", true))
	}
	// Offload reads the segment before pruning it.
	segment := l.Select(func(r Record) bool { return r.Seq < 6 })
	if n := l.Prune(6); n != 6 || len(segment) != 6 {
		t.Fatalf("pruned %d records (segment %d), want 6", n, len(segment))
	}
	if l.Len() != 4 {
		t.Fatalf("retained %d records, want 4", l.Len())
	}
	// Retained chain still verifies.
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("retained Verify = %d, %v", bad, err)
	}
	// Pruned range is no longer accessible.
	if _, err := l.Get(3); !errors.Is(err, ErrPruned) {
		t.Fatalf("Get(pruned) = %v, want ErrPruned", err)
	}
	// Offloaded segment verifies and links to the retained log.
	first, err := l.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySegment(segment, &first); err != nil {
		t.Fatalf("segment verification failed: %v", err)
	}
	// A tampered segment is detected.
	segment[2].Note = "doctored"
	if err := VerifySegment(segment, &first); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("tampered segment = %v, want ErrChainBroken", err)
	}
	// Pruning nothing drops nothing.
	if n := l.Prune(2); n != 0 {
		t.Fatalf("redundant prune dropped %d records", n)
	}
	// Pruning beyond the head clamps.
	if n := l.Prune(1000); n != 4 || l.Len() != 0 {
		t.Fatalf("clamped prune dropped %d records (%d left), want 4", n, l.Len())
	}
}

// TestLogPruneAcrossChunks prunes a log spanning several record chunks —
// mid-chunk, on a chunk boundary, and down to empty — checking after each
// cut that it dropped exactly the range read out before it, the retained records
// answer Get/Select/Redact by seq, the chain verifies across the boundary,
// and appending continues it.
func TestLogPruneAcrossChunks(t *testing.T) {
	l := NewLog(testClock())
	stage := func(n int) {
		for i := 0; i < n; i++ {
			l.AppendAsync(flowRecord("a", "b", true))
		}
	}
	stage(3*chunkLen + 17)
	first := uint64(0)
	for _, upto := range []uint64{100, chunkLen, 2*chunkLen + 5, 3*chunkLen + 17} {
		seg := l.Select(func(r Record) bool { return r.Seq < upto })
		if n := l.Prune(upto); uint64(n) != upto-first {
			t.Fatalf("Prune(%d) dropped %d records, want %d", upto, n, upto-first)
		}
		if uint64(len(seg)) != upto-first || seg[0].Seq != first || seg[len(seg)-1].Seq != upto-1 {
			t.Fatalf("before Prune(%d) Select read %d records from %d", upto, len(seg), seg[0].Seq)
		}
		if err := VerifySegment(seg, nil); err != nil {
			t.Fatalf("Prune(%d) segment: %v", upto, err)
		}
		first = upto
		next, _ := l.Checkpoint()
		if got := uint64(l.Len()); got != next-upto {
			t.Fatalf("after Prune(%d): Len %d, want %d", upto, got, next-upto)
		}
		if _, err := l.Get(upto - 1); !errors.Is(err, ErrPruned) {
			t.Fatalf("Get(%d) after Prune(%d) = %v, want ErrPruned", upto-1, upto, err)
		}
		for _, r := range l.Select(nil) {
			if got, err := l.Get(r.Seq); err != nil || got.Hash != r.Hash {
				t.Fatalf("Get(%d) disagrees with Select: %v", r.Seq, err)
			}
		}
		stage(chunkLen / 2)
		if recs := l.Select(nil); recs[0].Seq != upto {
			t.Fatalf("after Prune(%d) the first retained record is %d", upto, recs[0].Seq)
		} else if err := VerifySegment(seg, &recs[0]); err != nil {
			t.Fatalf("retained chain does not follow Prune(%d): %v", upto, err)
		}
		if n := l.RedactMany([]uint64{upto + 1}, "erased"); n != 1 {
			t.Fatalf("RedactMany tombstoned %d records, want 1", n)
		}
		if bad, err := l.Verify(); err != nil {
			t.Fatalf("after Prune(%d): chain broken at %d: %v", upto, bad, err)
		}
	}
	// Down to empty, then the chain continues from the pruned head.
	next, head := l.Checkpoint()
	l.Prune(next)
	r := commit(t, l, flowRecord("c", "d", true))
	if l.Len() != 1 || r.Seq != next || r.PrevHash != head {
		t.Fatalf("append after emptying: len %d, seq %d (want %d), linked %v", l.Len(), r.Seq, next, r.PrevHash == head)
	}
}

func TestVerifySegmentBreaks(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 4; i++ {
		l.AppendAsync(flowRecord("a", "b", true))
	}
	seg := l.Select(nil)
	l.Prune(4)
	// Break internal linkage.
	seg[2].PrevHash = [32]byte{0xff}
	if err := VerifySegment(seg, nil); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("broken segment = %v", err)
	}
	if err := VerifySegment(nil, nil); err != nil {
		t.Fatalf("empty segment = %v", err)
	}
}

func TestLogSinkForwarding(t *testing.T) {
	domainLog := NewLog(testClock())
	thingLog := NewLog(testClock())
	thingLog.AddSink(func(r Record) {
		r.Domain = "collected"
		domainLog.AppendAsync(r)
	})
	thingLog.AppendAsync(flowRecord("a", "b", true))
	thingLog.AppendAsync(flowRecord("c", "d", false))
	thingLog.Flush() // sinks run on the thing log's hasher

	if domainLog.Len() != 2 {
		t.Fatalf("domain log has %d records", domainLog.Len())
	}
	got := domainLog.Select(nil)
	if got[0].Domain != "collected" {
		t.Fatalf("sink record domain = %q", got[0].Domain)
	}
	// The collector re-chains with its own hashes.
	if bad, err := domainLog.Verify(); err != nil || bad != -1 {
		t.Fatalf("domain Verify = %d, %v", bad, err)
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	l := NewLog(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.AppendAsync(flowRecord("a", "b", true))
			}
		}()
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("len = %d, want 800", l.Len())
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("concurrent Verify = %d, %v", bad, err)
	}
}

func TestEventKindLayerStrings(t *testing.T) {
	kinds := map[EventKind]string{
		FlowAllowed: "flow-allowed", FlowDenied: "flow-denied",
		ContextChange: "context-change", PrivilegeGrant: "privilege-grant",
		Reconfiguration: "reconfiguration", GateCrossing: "gate-crossing",
		BreakGlass: "break-glass", EventKind(42): "EventKind(42)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	layers := map[Layer]string{
		LayerKernel: "kernel", LayerMessaging: "messaging",
		LayerPolicy: "policy", Layer(9): "Layer(9)",
	}
	for l, want := range layers {
		if l.String() != want {
			t.Errorf("layer %d String() = %q, want %q", int(l), l.String(), want)
		}
	}
}
