package cep

import (
	"fmt"
	"time"

	"lciot/internal/telemetry"
)

// An Event is one observation: a typed occurrence with a timestamp, a
// source, and a numeric value (vital sign, meter reading, ...).
type Event struct {
	Type   string
	Source string
	Time   time.Time
	Value  float64
	// Stage is the stage clock of the message that carried the event
	// (m.Trace.Clock; nil for unsampled flows): application sinks that
	// feed the bus into CEP thread it through so the deliver→detect edge
	// is marked when a pattern fires on this event.
	Stage *telemetry.StageClock
}

// A Detection is a matched pattern instance.
type Detection struct {
	// Pattern is the name of the pattern that fired.
	Pattern string
	// At is the event (or clock) time of the match.
	At time.Time
	// Events are the contributing events, oldest first.
	Events []Event
	// Value carries the aggregate value for aggregate patterns.
	Value float64
	// Stage is the stage clock of the event that completed the pattern
	// (nil for unattributed flows), threaded on so the policy layer can
	// mark the detect→decide edge.
	Stage *telemetry.StageClock
}

// A Pattern inspects the event stream. Implementations are stateful and not
// safe for concurrent use; the lane a ShardedEngine homes the pattern on
// serialises access.
type Pattern interface {
	// Name identifies the pattern in detections.
	Name() string
	// OnEvent observes one event and returns a detection if the pattern
	// completed.
	OnEvent(e Event) (Detection, bool)
	// OnTick observes time passing without events and may fire (absence
	// patterns).
	OnTick(now time.Time) (Detection, bool)
}

// A TypedPattern is a Pattern that declares the event types it subscribes
// to. Each engine lane uses the declaration to index the pattern by type, so
// feeding an event costs work proportional to the patterns that can match
// it, not to every registered pattern. An empty (or nil) declaration means
// "all types": the pattern lands in the lane's catch-all bucket and sees
// every event, exactly like a plain Pattern.
//
// Declaring types is a contract: a TypedPattern's OnEvent must ignore
// events whose Type is outside its declaration (the built-in patterns
// enforce this themselves), so indexed delivery is observably identical to
// feeding every pattern linearly.
type TypedPattern interface {
	Pattern
	// EventTypes lists the event types the pattern subscribes to; empty
	// means every type.
	EventTypes() []string
}

// A Purger is a Pattern that can drop buffered events matching a
// predicate. The built-in windowed patterns implement it, so an erasure
// obligation can purge an erased subject's events from live detection
// windows — otherwise a pattern could still fire on (and thereby leak)
// data that is legally gone.
type Purger interface {
	// PurgeEvents drops buffered events the predicate accepts and returns
	// how many were dropped.
	PurgeEvents(match func(Event) bool) int
}

// purgeEvents filters buf in place, dropping events the predicate accepts.
// The freed tail is zeroed so erased event values do not linger in the
// backing array (erasure means gone from memory too, not just unreachable
// through the slice header).
func purgeEvents(buf []Event, match func(Event) bool) ([]Event, int) {
	kept := buf[:0]
	for _, ev := range buf {
		if !match(ev) {
			kept = append(kept, ev)
		}
	}
	n := len(buf) - len(kept)
	clear(buf[len(kept):])
	return kept, n
}

// typeMatch reports whether an event type is within a declaration; an empty
// declaration admits everything.
func typeMatch(types []string, t string) bool {
	if len(types) == 0 {
		return true
	}
	for _, x := range types {
		if x == t {
			return true
		}
	}
	return false
}

// sourceMatch reports whether an event source is within a declaration; an
// empty declaration admits everything.
func sourceMatch(sources []string, s string) bool {
	if len(sources) == 0 {
		return true
	}
	for _, x := range sources {
		if x == s {
			return true
		}
	}
	return false
}

// Threshold fires when at least Count events satisfying Match arrive within
// Window. After firing it resets, so sustained conditions re-fire once per
// window's worth of events.
type Threshold struct {
	PatternName string
	// Types optionally restricts the pattern to these event types; empty
	// means every type. Declared types let the engine index the pattern.
	Types []string
	// Sources optionally restricts the pattern to events from these
	// sources; empty means every source. Declared sources let the
	// ShardedEngine home the pattern on one dispatch lane.
	Sources []string
	Match   func(Event) bool
	Count   int
	Window  time.Duration

	buf []Event
}

var _ TypedPattern = (*Threshold)(nil)

var _ SourceAffine = (*Threshold)(nil)

// Name implements Pattern.
func (t *Threshold) Name() string { return t.PatternName }

// EventTypes implements TypedPattern.
func (t *Threshold) EventTypes() []string { return t.Types }

// EventSources implements SourceAffine.
func (t *Threshold) EventSources() []string { return t.Sources }

// OnEvent implements Pattern.
func (t *Threshold) OnEvent(e Event) (Detection, bool) {
	if !typeMatch(t.Types, e.Type) {
		return Detection{}, false
	}
	if !sourceMatch(t.Sources, e.Source) {
		return Detection{}, false
	}
	if t.Match != nil && !t.Match(e) {
		return Detection{}, false
	}
	t.buf = append(t.buf, e)
	// Evict events older than the window relative to the newest.
	cutoff := e.Time.Add(-t.Window)
	i := 0
	for i < len(t.buf) && t.buf[i].Time.Before(cutoff) {
		i++
	}
	t.buf = t.buf[i:]
	if len(t.buf) >= t.Count {
		events := make([]Event, len(t.buf))
		copy(events, t.buf)
		t.buf = t.buf[:0]
		return Detection{Pattern: t.PatternName, At: e.Time, Events: events}, true
	}
	return Detection{}, false
}

// OnTick implements Pattern; thresholds are purely event-driven.
func (t *Threshold) OnTick(time.Time) (Detection, bool) { return Detection{}, false }

// PurgeEvents implements Purger.
func (t *Threshold) PurgeEvents(match func(Event) bool) int {
	var n int
	t.buf, n = purgeEvents(t.buf, match)
	return n
}

// Sequence fires when events matching Steps occur in order within Window of
// the first step. Out-of-order events do not reset progress; expiry does.
type Sequence struct {
	PatternName string
	// Types optionally restricts the pattern to these event types; empty
	// means every type. Declared types let the engine index the pattern.
	Types []string
	// Sources optionally restricts the pattern to events from these
	// sources; empty means every source. Declared sources let the
	// ShardedEngine home the pattern on one dispatch lane.
	Sources []string
	Steps   []func(Event) bool
	Window  time.Duration

	matched []Event
}

var _ TypedPattern = (*Sequence)(nil)

var _ SourceAffine = (*Sequence)(nil)

// Name implements Pattern.
func (s *Sequence) Name() string { return s.PatternName }

// EventTypes implements TypedPattern.
func (s *Sequence) EventTypes() []string { return s.Types }

// EventSources implements SourceAffine.
func (s *Sequence) EventSources() []string { return s.Sources }

// OnEvent implements Pattern.
func (s *Sequence) OnEvent(e Event) (Detection, bool) {
	if !typeMatch(s.Types, e.Type) {
		return Detection{}, false
	}
	if !sourceMatch(s.Sources, e.Source) {
		return Detection{}, false
	}
	if len(s.Steps) == 0 {
		return Detection{}, false
	}
	// Expire a stale partial match.
	if len(s.matched) > 0 && e.Time.Sub(s.matched[0].Time) > s.Window {
		s.matched = s.matched[:0]
	}
	next := len(s.matched)
	if next < len(s.Steps) && s.Steps[next](e) {
		s.matched = append(s.matched, e)
		if len(s.matched) == len(s.Steps) {
			events := make([]Event, len(s.matched))
			copy(events, s.matched)
			s.matched = s.matched[:0]
			return Detection{Pattern: s.PatternName, At: e.Time, Events: events}, true
		}
	}
	return Detection{}, false
}

// OnTick implements Pattern.
func (s *Sequence) OnTick(time.Time) (Detection, bool) { return Detection{}, false }

// PurgeEvents implements Purger. Dropping a matched step resets the whole
// partial match: the remaining steps alone no longer witness the sequence.
func (s *Sequence) PurgeEvents(match func(Event) bool) int {
	for _, ev := range s.matched {
		if match(ev) {
			n := len(s.matched)
			s.matched = s.matched[:0]
			return n
		}
	}
	return 0
}

// Absence fires when no matching event has been seen for Timeout — the
// heartbeat-loss detector ("how to deal with components no longer
// accessible, intermittently connected or mobile?", Challenge 6). It arms on
// the first matching event and re-fires at most once per silence.
type Absence struct {
	PatternName string
	// Types optionally restricts the pattern to these event types; empty
	// means every type. Declared types let the engine index the pattern.
	Types []string
	// Sources optionally restricts the pattern to events from these
	// sources; empty means every source. Declared sources let the
	// ShardedEngine home the pattern on one dispatch lane.
	Sources []string
	Match   func(Event) bool
	Timeout time.Duration

	lastSeen time.Time
	armed    bool
}

var _ TypedPattern = (*Absence)(nil)

var _ SourceAffine = (*Absence)(nil)

// Name implements Pattern.
func (a *Absence) Name() string { return a.PatternName }

// EventTypes implements TypedPattern.
func (a *Absence) EventTypes() []string { return a.Types }

// EventSources implements SourceAffine.
func (a *Absence) EventSources() []string { return a.Sources }

// OnEvent implements Pattern.
func (a *Absence) OnEvent(e Event) (Detection, bool) {
	if !typeMatch(a.Types, e.Type) {
		return Detection{}, false
	}
	if !sourceMatch(a.Sources, e.Source) {
		return Detection{}, false
	}
	if !sourceMatch(a.Sources, e.Source) {
		return Detection{}, false
	}
	if a.Match != nil && !a.Match(e) {
		return Detection{}, false
	}
	a.lastSeen = e.Time
	a.armed = true
	return Detection{}, false
}

// OnTick implements Pattern.
func (a *Absence) OnTick(now time.Time) (Detection, bool) {
	if !a.armed || now.Sub(a.lastSeen) < a.Timeout {
		return Detection{}, false
	}
	a.armed = false // fire once per silence
	return Detection{Pattern: a.PatternName, At: now}, true
}

// AggKind selects the aggregate function.
type AggKind int

// Aggregate kinds.
const (
	AggAvg AggKind = iota + 1
	AggMin
	AggMax
)

// String implements fmt.Stringer.
func (k AggKind) String() string {
	switch k {
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Aggregate fires when the aggregate of matching events' values over a
// sliding Window crosses Limit in the direction given by Above. It requires
// at least MinCount events before judging, to avoid firing on a single
// outlier.
type Aggregate struct {
	PatternName string
	// Types optionally restricts the pattern to these event types; empty
	// means every type. Declared types let the engine index the pattern.
	Types []string
	// Sources optionally restricts the pattern to events from these
	// sources; empty means every source. Declared sources let the
	// ShardedEngine home the pattern on one dispatch lane.
	Sources  []string
	Match    func(Event) bool
	Kind     AggKind
	Window   time.Duration
	Limit    float64
	Above    bool
	MinCount int

	buf []Event
}

var _ TypedPattern = (*Aggregate)(nil)

var _ SourceAffine = (*Aggregate)(nil)

// Name implements Pattern.
func (a *Aggregate) Name() string { return a.PatternName }

// EventTypes implements TypedPattern.
func (a *Aggregate) EventTypes() []string { return a.Types }

// EventSources implements SourceAffine.
func (a *Aggregate) EventSources() []string { return a.Sources }

// OnEvent implements Pattern.
func (a *Aggregate) OnEvent(e Event) (Detection, bool) {
	if !typeMatch(a.Types, e.Type) {
		return Detection{}, false
	}
	if a.Match != nil && !a.Match(e) {
		return Detection{}, false
	}
	a.buf = append(a.buf, e)
	cutoff := e.Time.Add(-a.Window)
	i := 0
	for i < len(a.buf) && a.buf[i].Time.Before(cutoff) {
		i++
	}
	a.buf = a.buf[i:]
	minCount := a.MinCount
	if minCount < 1 {
		minCount = 1
	}
	if len(a.buf) < minCount {
		return Detection{}, false
	}
	val := a.buf[0].Value
	sum := 0.0
	for _, ev := range a.buf {
		sum += ev.Value
		switch a.Kind {
		case AggMin:
			if ev.Value < val {
				val = ev.Value
			}
		case AggMax:
			if ev.Value > val {
				val = ev.Value
			}
		}
	}
	if a.Kind == AggAvg {
		val = sum / float64(len(a.buf))
	}
	crossed := (a.Above && val > a.Limit) || (!a.Above && val < a.Limit)
	if !crossed {
		return Detection{}, false
	}
	events := make([]Event, len(a.buf))
	copy(events, a.buf)
	a.buf = a.buf[:0]
	return Detection{Pattern: a.PatternName, At: e.Time, Events: events, Value: val}, true
}

// OnTick implements Pattern.
func (a *Aggregate) OnTick(time.Time) (Detection, bool) { return Detection{}, false }

// PurgeEvents implements Purger.
func (a *Aggregate) PurgeEvents(match func(Event) bool) int {
	var n int
	a.buf, n = purgeEvents(a.buf, match)
	return n
}
