package audit

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestStagingLanesChainOrder drives concurrent per-lane staging — G
// goroutines, each appending a numbered sequence and moving to the next
// lane on every append — and checks the three properties the merge must
// preserve: nothing is lost, the hash chain verifies, and each
// goroutine's records appear in its own program order. A goroutine that
// mixes lanes is the hard case: the hasher must never commit its later
// ticket from one lane before an earlier one still landing in another.
func TestStagingLanesChainOrder(t *testing.T) {
	const (
		lanes = 8
		gs    = 8
		per   = 2000
	)
	l := NewLog(nil)
	l.SetStagingLanes(lanes)

	var wg sync.WaitGroup
	for g := 0; g < gs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.AppendAsyncOn((g+i)%lanes, Record{
					Kind: FlowAllowed, Layer: LayerMessaging,
					Note: fmt.Sprintf("g%d-%d", g, i),
				}, nil)
			}
		}(g)
	}
	wg.Wait()
	l.Flush()

	if got := l.Len(); got != gs*per {
		t.Fatalf("log has %d records, want %d", got, gs*per)
	}
	if seq, err := l.Verify(); err != nil {
		t.Fatalf("chain broken at %d: %v", seq, err)
	}
	// Program order per goroutine: note indexes strictly increase.
	last := make(map[string]int)
	for _, r := range l.Select(nil) {
		var g, i int
		if _, err := fmt.Sscanf(r.Note, "g%d-%d", &g, &i); err != nil {
			t.Fatalf("unexpected note %q", r.Note)
		}
		key := fmt.Sprintf("g%d", g)
		if prev, ok := last[key]; ok && i <= prev {
			t.Fatalf("goroutine %d: record %d committed after %d", g, i, prev)
		}
		last[key] = i
	}
	// Sequence numbers are dense and monotonic.
	recs := l.Select(nil)
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("sequence gap: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// TestStagingLanesSinkOrder verifies sinks observe the same merged order
// the chain records, under concurrent multi-lane staging.
func TestStagingLanesSinkOrder(t *testing.T) {
	l := NewLog(nil)
	l.SetStagingLanes(4)
	var mu sync.Mutex
	var seqs []uint64
	l.AddSink(func(r Record) {
		mu.Lock()
		seqs = append(seqs, r.Seq)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.AppendAsyncOn(g, Record{Kind: FlowAllowed, Layer: LayerMessaging}, nil)
			}
		}(g)
	}
	wg.Wait()
	l.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != 400 {
		t.Fatalf("sink saw %d records, want 400", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("sink order broken: %d then %d", seqs[i-1], seqs[i])
		}
	}
}

// TestStagingLanesGrowOnly: shrinking is refused (records may be staged
// in high lanes), growing drains first so nothing strands.
func TestStagingLanesGrowOnly(t *testing.T) {
	l := NewLog(nil)
	l.SetStagingLanes(4)
	l.AppendAsyncOn(3, Record{Kind: FlowAllowed, Layer: LayerMessaging}, nil)
	l.SetStagingLanes(2) // no-op
	l.SetStagingLanes(8)
	l.AppendAsyncOn(7, Record{Kind: FlowAllowed, Layer: LayerMessaging}, nil)
	l.Flush()
	if got := l.Len(); got != 2 {
		t.Fatalf("log has %d records, want 2", got)
	}
	if _, err := l.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendAsyncZeroValueLog: a log never configured for lanes still
// accepts AppendAsync (lazy single lane), as every pre-sharding caller
// expects.
func TestAppendAsyncZeroValueLog(t *testing.T) {
	l := NewLog(nil)
	for i := 0; i < 10; i++ {
		l.AppendAsync(Record{Kind: FlowAllowed, Layer: LayerMessaging})
	}
	l.Flush()
	if got := l.Len(); got != 10 {
		t.Fatalf("log has %d records, want 10", got)
	}
}

// TestCollectStagedPanicsOnTicketGap: the hasher places each staged
// record at its ticket's offset in the batch, so a lane set whose tickets
// do not form one contiguous range (a lost record) must stop the hasher
// with the range named rather than commit a zero Record in the hole.
func TestCollectStagedPanicsOnTicketGap(t *testing.T) {
	l := NewLog(nil)
	l.SetStagingLanes(2)
	lanes := *l.getLanes()
	lanes[0].buf = []staged{{ticket: 3}, {ticket: 4}}
	lanes[1].buf = []staged{{ticket: 6}}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "[3, 6)") || !strings.Contains(msg, "ticket 6") {
			t.Fatalf("collectStaged over tickets {3, 4, 6}: panic %q, want the range [3, 6) and ticket 6 named", msg)
		}
	}()
	l.collectStaged()
}

// TestCollectStagedPlacesByTicket: interleaved lanes come back as one
// batch in ticket order, and a lane left empty contributes nothing from
// the buffer it handed back at the previous collection.
func TestCollectStagedPlacesByTicket(t *testing.T) {
	l := NewLog(nil)
	l.SetStagingLanes(3)
	lanes := *l.getLanes()
	lanes[0].buf = []staged{{ticket: 1}, {ticket: 4}}
	lanes[1].buf = []staged{{ticket: 2}, {ticket: 3}, {ticket: 5}}
	check := func(batch []staged, want ...uint64) {
		t.Helper()
		got := make([]uint64, len(batch))
		for i := range batch {
			got[i] = batch[i].ticket
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("batch tickets %v, want %v", got, want)
		}
	}
	check(l.collectStaged(), 1, 2, 3, 4, 5)
	lanes[2].buf = append(lanes[2].buf, staged{ticket: 6})
	check(l.collectStaged(), 6)
}
