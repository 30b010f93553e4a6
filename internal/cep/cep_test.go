package cep

import (
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func at(sec float64) time.Time { return t0.Add(time.Duration(sec * float64(time.Second))) }

func collect() (*[]Detection, func(Detection)) {
	var out []Detection
	return &out, func(d Detection) { out = append(out, d) }
}

func TestThresholdFiresWithinWindow(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Threshold{
		PatternName: "tachycardia",
		Match:       func(ev Event) bool { return ev.Type == "heart-rate" && ev.Value > 120 },
		Count:       3,
		Window:      time.Minute,
	})

	e.Feed(Event{Type: "heart-rate", Time: at(0), Value: 130})
	e.Feed(Event{Type: "heart-rate", Time: at(1), Value: 80}) // below: ignored
	e.Feed(Event{Type: "heart-rate", Time: at(2), Value: 140})
	if len(*got) != 0 {
		t.Fatal("fired early")
	}
	e.Feed(Event{Type: "heart-rate", Time: at(3), Value: 150})
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
	d := (*got)[0]
	if d.Pattern != "tachycardia" || len(d.Events) != 3 {
		t.Fatalf("detection = %+v", d)
	}
	// After firing the buffer resets: two more highs are not enough.
	e.Feed(Event{Type: "heart-rate", Time: at(4), Value: 150})
	e.Feed(Event{Type: "heart-rate", Time: at(5), Value: 150})
	if len(*got) != 1 {
		t.Fatal("re-fired without a full new window of events")
	}
}

func TestThresholdWindowEviction(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Threshold{PatternName: "burst", Count: 3, Window: 10 * time.Second})

	e.Feed(Event{Time: at(0)})
	e.Feed(Event{Time: at(5)})
	e.Feed(Event{Time: at(20)}) // first two expired
	if len(*got) != 0 {
		t.Fatal("fired across expired window")
	}
	e.Feed(Event{Time: at(21)})
	e.Feed(Event{Time: at(22)})
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
}

func TestSequenceOrderedMatch(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	typeIs := func(want string) func(Event) bool {
		return func(ev Event) bool { return ev.Type == want }
	}
	e.Register(&Sequence{
		PatternName: "door-then-motion-then-silence-breach",
		Steps:       []func(Event) bool{typeIs("door-open"), typeIs("motion"), typeIs("alarm-off")},
		Window:      time.Minute,
	})

	e.Feed(Event{Type: "motion", Time: at(0)}) // wrong first step: ignored
	e.Feed(Event{Type: "door-open", Time: at(1)})
	e.Feed(Event{Type: "motion", Time: at(2)})
	e.Feed(Event{Type: "temperature", Time: at(3)}) // unrelated: no reset
	e.Feed(Event{Type: "alarm-off", Time: at(4)})
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
	if evs := (*got)[0].Events; len(evs) != 3 || evs[0].Type != "door-open" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestSequenceWindowExpiry(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	typeIs := func(want string) func(Event) bool {
		return func(ev Event) bool { return ev.Type == want }
	}
	e.Register(&Sequence{
		PatternName: "pair",
		Steps:       []func(Event) bool{typeIs("a"), typeIs("b")},
		Window:      10 * time.Second,
	})
	e.Feed(Event{Type: "a", Time: at(0)})
	e.Feed(Event{Type: "b", Time: at(30)}) // too late: partial match expired
	if len(*got) != 0 {
		t.Fatal("fired on expired sequence")
	}
	// The late "b" also did not restart a match; a fresh pair works.
	e.Feed(Event{Type: "a", Time: at(31)})
	e.Feed(Event{Type: "b", Time: at(32)})
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
}

func TestSequenceEmptySteps(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Sequence{PatternName: "empty"})
	e.Feed(Event{Type: "x", Time: at(0)})
	if len(*got) != 0 {
		t.Fatal("empty sequence fired")
	}
}

func TestAbsenceDetection(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Absence{
		PatternName: "sensor-offline",
		Match:       func(ev Event) bool { return ev.Type == "heartbeat" },
		Timeout:     30 * time.Second,
	})

	// Not armed: silence before any heartbeat does not fire.
	e.Advance(at(100))
	if len(*got) != 0 {
		t.Fatal("fired before arming")
	}

	e.Feed(Event{Type: "heartbeat", Time: at(100)})
	e.Advance(at(120))
	if len(*got) != 0 {
		t.Fatal("fired within timeout")
	}
	e.Advance(at(131))
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
	// Fires once per silence.
	e.Advance(at(200))
	if len(*got) != 1 {
		t.Fatal("re-fired during same silence")
	}
	// A new heartbeat re-arms.
	e.Feed(Event{Type: "heartbeat", Time: at(210)})
	e.Advance(at(300))
	if len(*got) != 2 {
		t.Fatalf("detections = %d, want 2", len(*got))
	}
}

func TestAggregateAverage(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Aggregate{
		PatternName: "avg-temp-high",
		Kind:        AggAvg,
		Window:      time.Minute,
		Limit:       30,
		Above:       true,
		MinCount:    3,
	})

	e.Feed(Event{Time: at(0), Value: 40})
	e.Feed(Event{Time: at(1), Value: 35})
	if len(*got) != 0 {
		t.Fatal("fired below MinCount")
	}
	e.Feed(Event{Time: at(2), Value: 33})
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
	if v := (*got)[0].Value; v != 36 {
		t.Fatalf("aggregate value = %v, want 36", v)
	}
}

func TestAggregateMinBelow(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Aggregate{
		PatternName: "spo2-low",
		Kind:        AggMin,
		Window:      time.Minute,
		Limit:       90,
		Above:       false,
	})
	e.Feed(Event{Time: at(0), Value: 95})
	if len(*got) != 0 {
		t.Fatal("fired above limit")
	}
	e.Feed(Event{Time: at(1), Value: 88})
	if len(*got) != 1 {
		t.Fatalf("detections = %d, want 1", len(*got))
	}
	if v := (*got)[0].Value; v != 88 {
		t.Fatalf("min = %v", v)
	}
}

func TestAggregateMax(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Aggregate{
		PatternName: "spike",
		Kind:        AggMax,
		Window:      time.Minute,
		Limit:       100,
		Above:       true,
	})
	e.Feed(Event{Time: at(0), Value: 50})
	e.Feed(Event{Time: at(1), Value: 150})
	if len(*got) != 1 || (*got)[0].Value != 150 {
		t.Fatalf("detections = %+v", *got)
	}
}

func TestEngineMultiplePatterns(t *testing.T) {
	got, handler := collect()
	e := NewShardedEngine(1, handler)
	e.Register(&Threshold{PatternName: "p1", Count: 1, Window: time.Minute})
	e.Register(&Threshold{PatternName: "p2", Count: 1, Window: time.Minute})
	e.Feed(Event{Time: at(0)})
	if len(*got) != 2 {
		t.Fatalf("detections = %d, want 2 (both patterns)", len(*got))
	}
}

func TestEngineNilHandler(t *testing.T) {
	e := NewShardedEngine(1, nil)
	e.Register(&Threshold{PatternName: "p", Count: 1, Window: time.Minute})
	e.Feed(Event{Time: at(0)}) // must not panic
	e.Advance(at(1))
}

func TestAggKindString(t *testing.T) {
	if AggAvg.String() != "avg" || AggMin.String() != "min" || AggMax.String() != "max" {
		t.Fatal("agg kind strings")
	}
	if AggKind(9).String() != "AggKind(9)" {
		t.Fatal("unknown agg kind")
	}
}
