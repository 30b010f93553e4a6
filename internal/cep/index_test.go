package cep

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// untyped hides a pattern's TypedPattern interface, forcing it into the
// engine's catch-all bucket. Feeding a catch-all-only engine is a linear
// walk over every pattern in registration order — the brute-force reference
// the indexed path must match byte for byte.
type untyped struct{ p Pattern }

func (u untyped) Name() string                           { return u.p.Name() }
func (u untyped) OnEvent(e Event) (Detection, bool)      { return u.p.OnEvent(e) }
func (u untyped) OnTick(now time.Time) (Detection, bool) { return u.p.OnTick(now) }

// buildPatterns builds one randomized pattern set twice (identical
// configuration, independent state) so an indexed and a linear engine can
// run the same workload side by side.
func buildPatterns(r *rand.Rand, types []string) (a, b []Pattern) {
	n := r.Intn(12) + 4
	for i := 0; i < n; i++ {
		name := "p" + strconv.Itoa(i)
		// Half the patterns declare a random subset of types; half stay
		// untyped (catch-all).
		var declared []string
		if r.Intn(2) == 0 {
			for _, t := range types {
				if r.Intn(2) == 0 {
					declared = append(declared, t)
				}
			}
		}
		limit := float64(r.Intn(50))
		count := r.Intn(3) + 2
		mk := func() Pattern {
			switch i % 4 {
			case 0:
				return &Threshold{
					PatternName: name, Types: declared,
					Match: func(e Event) bool { return e.Value > limit },
					Count: count, Window: time.Minute,
				}
			case 1:
				step := func(v float64) func(Event) bool {
					return func(e Event) bool { return e.Value > v }
				}
				return &Sequence{
					PatternName: name, Types: declared,
					Steps:  []func(Event) bool{step(limit), step(limit / 2)},
					Window: time.Minute,
				}
			case 2:
				return &Absence{
					PatternName: name, Types: declared,
					Match:   func(e Event) bool { return e.Value > limit },
					Timeout: 30 * time.Second,
				}
			default:
				return &Aggregate{
					PatternName: name, Types: declared,
					Kind: AggAvg, Window: time.Minute, Limit: limit,
					Above: true, MinCount: 2,
				}
			}
		}
		// Same seed state for both engines: the constructors above capture
		// only immutable parameters, so two calls yield identical patterns.
		a = append(a, mk())
		b = append(b, mk())
	}
	return a, b
}

// TestFeedIndexedMatchesLinear feeds identical randomized event streams to
// an indexed engine and a catch-all (linear) engine built from the same
// pattern configuration, and requires identical detection sequences.
func TestFeedIndexedMatchesLinear(t *testing.T) {
	types := []string{"hr", "spo2", "door", "co2"}
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		pa, pb := buildPatterns(r, types)

		var got, want []Detection
		indexed := NewShardedEngine(1, func(d Detection) { got = append(got, d) })
		linear := NewShardedEngine(1, func(d Detection) { want = append(want, d) })
		for i := range pa {
			indexed.Register(pa[i])
			linear.Register(untyped{p: pb[i]})
		}

		now := time.Unix(0, 0)
		for i := 0; i < 400; i++ {
			now = now.Add(time.Duration(r.Intn(5000)) * time.Millisecond)
			if r.Intn(10) == 0 {
				indexed.Advance(now)
				linear.Advance(now)
				continue
			}
			ev := Event{
				Type:   types[r.Intn(len(types))],
				Source: "s" + strconv.Itoa(r.Intn(3)),
				Time:   now,
				Value:  float64(r.Intn(100)),
			}
			indexed.Feed(ev)
			linear.Feed(ev)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: indexed feed diverged from linear walk:\nindexed: %v\nlinear:  %v",
				seed, got, want)
		}
	}
}

// TestFeedSkipsUnsubscribedPatterns proves the index actually prunes work:
// an event of one type must not reach a pattern typed for another.
func TestFeedSkipsUnsubscribedPatterns(t *testing.T) {
	touched := 0
	e := NewShardedEngine(1, nil)
	for i := 0; i < 100; i++ {
		typ := "t" + strconv.Itoa(i)
		e.Register(&Threshold{
			PatternName: typ, Types: []string{typ},
			Match: func(Event) bool { touched++; return false },
			Count: 1, Window: time.Minute,
		})
	}
	e.Feed(Event{Type: "t7", Time: time.Unix(0, 0), Value: 1})
	if touched != 1 {
		t.Fatalf("event touched %d patterns, want 1", touched)
	}
}

// TestRegisterDuplicateTypesDeliverOnce: a pattern declaring the same type
// twice must still see each event once.
func TestRegisterDuplicateTypesDeliverOnce(t *testing.T) {
	seen := 0
	e := NewShardedEngine(1, nil)
	e.Register(&Threshold{
		PatternName: "dup", Types: []string{"hr", "hr"},
		Match: func(Event) bool { seen++; return false },
		Count: 100, Window: time.Minute,
	})
	e.Feed(Event{Type: "hr", Time: time.Unix(0, 0), Value: 1})
	if seen != 1 {
		t.Fatalf("duplicate type declaration delivered event %d times", seen)
	}
}

// TestAdvanceDeterministicOrder: tick delivery follows registration order,
// every run, regardless of how patterns were indexed by type.
func TestAdvanceDeterministicOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		var fired []string
		e := NewShardedEngine(1, func(d Detection) { fired = append(fired, d.Pattern) })
		var want []string
		for i := 0; i < 30; i++ {
			name := "abs" + strconv.Itoa(i)
			var types []string
			if i%2 == 0 {
				types = []string{fmt.Sprintf("t%d", i)}
			}
			e.Register(&Absence{PatternName: name, Types: types, Timeout: time.Second})
			want = append(want, name)
		}
		t0 := time.Unix(0, 0)
		for i := 0; i < 30; i++ {
			// Arm every absence pattern with a matching (untyped-gate) event
			// of its own type; untyped ones see it too.
			e.Feed(Event{Type: fmt.Sprintf("t%d", i), Time: t0})
		}
		e.Advance(t0.Add(time.Hour))
		if !reflect.DeepEqual(fired, want) {
			t.Fatalf("run %d: tick order %v, want registration order %v", run, fired, want)
		}
	}
}
