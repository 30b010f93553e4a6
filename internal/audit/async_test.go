package audit

import (
	"errors"
	"sync"
	"testing"
)

// TestAppendAsyncChainsInOrder checks that batched background hashing
// produces exactly the chain a synchronous log would: dense sequence
// numbers, correct linkage, Verify clean.
func TestAppendAsyncChainsInOrder(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 100; i++ {
		l.AppendAsync(flowRecord("a", "b", i%3 != 0))
	}
	l.Flush()
	if l.Len() != 100 {
		t.Fatalf("len = %d, want 100", l.Len())
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
	for i := 0; i < 100; i++ {
		r, err := l.Get(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if r.Seq != uint64(i) || r.Time.IsZero() {
			t.Fatalf("record %d: seq=%d time=%v", i, r.Seq, r.Time)
		}
	}
}

// TestAppendAsyncInterleavesAcrossLanes states the ticket-order contract
// for a control record staged behind a backlog: it takes the next ticket,
// so it commits after everything staged before it on any lane, and the
// combined chain verifies.
func TestAppendAsyncInterleavesAcrossLanes(t *testing.T) {
	l := NewLog(testClock())
	l.SetStagingLanes(4)
	for i := 0; i < 10; i++ {
		l.AppendAsyncOn(i, flowRecord("flow", "x", true), nil)
	}
	r := commit(t, l, Record{Kind: Reconfiguration, Note: "control"})
	if r.Seq != 10 {
		t.Fatalf("control record seq = %d, want 10 (after the staged backlog)", r.Seq)
	}
	if r.Hash == ([32]byte{}) {
		t.Fatal("committed record is unhashed")
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}

// TestAsyncTamperDetected: the tamper-evidence guarantee must be identical
// on the batched path — doctoring any record breaks Verify.
func TestAsyncTamperDetected(t *testing.T) {
	l := NewLog(testClock())
	for i := 0; i < 50; i++ {
		l.AppendAsync(flowRecord("a", "b", true))
	}
	l.Flush()
	l.mu.Lock()
	l.at(17).Note = "doctored"
	l.mu.Unlock()
	bad, err := l.Verify()
	if !errors.Is(err, ErrChainBroken) || bad != 17 {
		t.Fatalf("Verify after tamper = %d, %v; want seq 17, ErrChainBroken", bad, err)
	}
}

// TestAppendAsyncConcurrent drives the ring from many goroutines (well
// past the backpressure bound) and checks the committed chain.
func TestAppendAsyncConcurrent(t *testing.T) {
	l := NewLog(nil)
	var wg sync.WaitGroup
	const writers, each = 8, 2000
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				l.AppendAsync(flowRecord("a", "b", true))
			}
		}()
	}
	wg.Wait()
	if got := l.Len(); got != writers*each {
		t.Fatalf("len = %d, want %d", got, writers*each)
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}

// TestAsyncSinkForwarding: sinks fire for batched records too (on the
// hasher goroutine), preserving hierarchical collection.
func TestAsyncSinkForwarding(t *testing.T) {
	collector := NewLog(testClock())
	thing := NewLog(testClock())
	thing.AddSink(func(r Record) {
		r.Domain = "collected"
		collector.AppendAsync(r)
	})
	for i := 0; i < 20; i++ {
		thing.AppendAsync(flowRecord("a", "b", true))
	}
	thing.Flush()
	if collector.Len() != 20 {
		t.Fatalf("collector len = %d, want 20", collector.Len())
	}
	if bad, err := collector.Verify(); err != nil || bad != -1 {
		t.Fatalf("collector Verify = %d, %v", bad, err)
	}
}

// TestZeroValueLog: the documented zero-value readiness — staging on a
// zero Log installs its lane, and tickets still order the chain.
func TestZeroValueLog(t *testing.T) {
	var l Log
	l.AppendAsync(flowRecord("a", "b", true))
	r := commit(t, &l, flowRecord("b", "c", true))
	if r.Seq != 1 || r.Time.IsZero() || r.Src != "b" {
		t.Fatalf("zero-value log append = %+v", r)
	}
	if bad, err := l.Verify(); err != nil || bad != -1 {
		t.Fatalf("Verify = %d, %v", bad, err)
	}
}
