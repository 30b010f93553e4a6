package cep

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// namesOnLane returns count source names that hash to the given lane at
// width n, and one that does not (for cross-lane patterns).
func namesOnLane(lane, n, count int) []string {
	var out []string
	for i := 0; len(out) < count; i++ {
		name := fmt.Sprintf("sensor-%d", i)
		if laneIdxFor(name, n) == lane {
			out = append(out, name)
		}
	}
	return out
}

func nameOffLane(lane, n int) string {
	if n <= 1 {
		return "other-0" // width 1: every name is on lane 0 by definition
	}
	for i := 0; ; i++ {
		name := fmt.Sprintf("other-%d", i)
		if laneIdxFor(name, n) != lane {
			return name
		}
	}
}

// laneTestPatterns builds a fresh pattern set exercising every homing
// class: lane-homed thresholds, a cross-lane sequence (broadcast), and a
// sourceless aggregate (broadcast).
func laneTestPatterns(n int) []Pattern {
	onA := namesOnLane(0, n, 2)
	offA := nameOffLane(0, n)
	return []Pattern{
		&Threshold{
			PatternName: "homed-" + onA[0],
			Sources:     []string{onA[0]},
			Count:       2, Window: time.Minute,
		},
		&Threshold{
			PatternName: "homed-pair",
			Sources:     onA, // two sources, same lane: still homed
			Count:       3, Window: time.Minute,
		},
		&Sequence{
			PatternName: "cross-lane-seq",
			Sources:     []string{onA[0], offA}, // spans lanes: broadcast
			Steps: []func(Event) bool{
				func(e Event) bool { return e.Source == onA[0] },
				func(e Event) bool { return e.Source == offA },
			},
			Window: time.Minute,
		},
		&Aggregate{
			PatternName: "global-avg", // no sources: broadcast
			Kind:        AggAvg, Window: time.Minute,
			Limit: 50, Above: true, MinCount: 3,
		},
	}
}

// laneTestEvents interleaves events across lane-homed and off-lane
// sources so every pattern above can fire at least once.
func laneTestEvents(n int) []Event {
	onA := namesOnLane(0, n, 2)
	offA := nameOffLane(0, n)
	var evs []Event
	for i := 0; i < 12; i++ {
		evs = append(evs,
			Event{Source: onA[0], Time: at(float64(i)), Value: 60},
			Event{Source: onA[1], Time: at(float64(i) + 0.1), Value: 70},
			Event{Source: offA, Time: at(float64(i) + 0.2), Value: 80},
		)
	}
	return evs
}

func detKey(d Detection) string {
	return fmt.Sprintf("%s@%s/%g/%d", d.Pattern, d.At.Format(time.RFC3339Nano), d.Value, len(d.Events))
}

// TestShardedEngineMatchesEngine feeds the identical stream through a
// 1-lane and a 4-lane ShardedEngine and requires the same detection
// multiset: partitioned dispatch must be observably identical to feeding
// every pattern every event on one lane.
func TestShardedEngineMatchesEngine(t *testing.T) {
	const n = 4
	run := func(lanes int) []string {
		var keys []string
		se := NewShardedEngine(lanes, func(d Detection) { keys = append(keys, detKey(d)) })
		for _, p := range laneTestPatterns(n) {
			se.Register(p)
		}
		for _, ev := range laneTestEvents(n) {
			se.Feed(ev)
		}
		sort.Strings(keys)
		return keys
	}
	single, sharded := run(1), run(n)

	if len(single) == 0 {
		t.Fatal("reference engine produced no detections; test is vacuous")
	}
	if len(single) != len(sharded) {
		t.Fatalf("detection count: 1 lane %d, %d lanes %d\n1 lane: %v\n%d lanes: %v",
			len(single), n, len(sharded), single, n, sharded)
	}
	for i := range single {
		if single[i] != sharded[i] {
			t.Fatalf("detection %d differs: 1 lane %q, %d lanes %q", i, single[i], n, sharded[i])
		}
	}
}

// TestShardedEngineSingleLaneOrder requires that a 1-lane engine delivers
// in exact registration order (not just the same multiset): everything
// lives on lane 0, no broadcast split. The reference walks every pattern
// linearly for every event.
func TestShardedEngineSingleLaneOrder(t *testing.T) {
	var linear, sharded []string
	ref := laneTestPatterns(1)
	se := NewShardedEngine(1, func(d Detection) { sharded = append(sharded, detKey(d)) })
	for _, p := range laneTestPatterns(1) {
		se.Register(p)
	}
	for _, ev := range laneTestEvents(1) {
		for _, p := range ref {
			if d, ok := p.OnEvent(ev); ok {
				linear = append(linear, detKey(d))
			}
		}
		se.Feed(ev)
	}
	if len(linear) == 0 {
		t.Fatal("no detections; test is vacuous")
	}
	if fmt.Sprint(linear) != fmt.Sprint(sharded) {
		t.Fatalf("order differs:\nlinear:  %v\nsharded: %v", linear, sharded)
	}
}

// TestShardedEngineConcurrentFeed hammers a multi-lane engine from one
// goroutine per lane plus a concurrent purger and advancer; run under
// -race this is the data-race proof for per-lane locking. Each feeder's
// own detections must all arrive (handler runs on the feeder goroutine).
func TestShardedEngineConcurrentFeed(t *testing.T) {
	const n = 4
	var mu sync.Mutex
	perPattern := map[string]int{}
	se := NewShardedEngine(n, func(d Detection) {
		mu.Lock()
		perPattern[d.Pattern]++
		mu.Unlock()
	})
	// One homed threshold per lane, firing on every event (Count 1).
	sources := make([]string, n)
	for lane := 0; lane < n; lane++ {
		src := namesOnLane(lane, n, 1)[0]
		sources[lane] = src
		se.Register(&Threshold{
			PatternName: "lane-" + src,
			Sources:     []string{src},
			Count:       1, Window: time.Minute,
		})
	}
	// And one broadcast pattern seeing everything.
	se.Register(&Threshold{PatternName: "bcast", Count: 1, Window: time.Minute})

	const perFeeder = 200
	var wg sync.WaitGroup
	for lane := 0; lane < n; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < perFeeder; i++ {
				se.Feed(Event{Source: sources[lane], Time: at(float64(i)), Value: 1})
			}
		}(lane)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			se.Purge(func(Event) bool { return false })
			se.Advance(at(float64(i)))
		}
	}()
	wg.Wait()

	for lane := 0; lane < n; lane++ {
		if got := perPattern["lane-"+sources[lane]]; got != perFeeder {
			t.Errorf("lane %d pattern fired %d times, want %d", lane, got, perFeeder)
		}
	}
	if got := perPattern["bcast"]; got != n*perFeeder {
		t.Errorf("broadcast pattern fired %d times, want %d", got, n*perFeeder)
	}
}

// TestShardedEnginePurgeFromHandler registers a handler that calls Purge
// — the erase-on-event path in core — and must not deadlock, because
// handlers run outside the lane locks.
func TestShardedEnginePurgeFromHandler(t *testing.T) {
	var se *ShardedEngine
	purged := 0
	se = NewShardedEngine(4, func(d Detection) {
		purged += se.Purge(func(e Event) bool { return true })
	})
	src := namesOnLane(1, 4, 1)[0]
	se.Register(&Threshold{
		PatternName: "erasure-trigger",
		Sources:     []string{src},
		Count:       2, Window: time.Minute,
	})
	// Park an event in another lane's window so the cross-lane purge has
	// something to drop.
	other := nameOffLane(1, 4)
	se.Register(&Threshold{PatternName: "victim", Sources: []string{other}, Count: 100, Window: time.Hour})
	se.Feed(Event{Source: other, Time: at(0), Value: 1})

	done := make(chan struct{})
	go func() {
		se.Feed(Event{Source: src, Time: at(1), Value: 1})
		se.Feed(Event{Source: src, Time: at(2), Value: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Purge from detection handler deadlocked")
	}
	if purged == 0 {
		t.Fatal("handler's Purge dropped nothing; cross-lane purge untested")
	}
}
