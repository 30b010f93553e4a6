// Package ctxmodel represents the environmental context that policy is
// conditioned on (Section 3 Concern 6, Section 10.2): location, time, duty
// rosters, emergency state. "Policy is inherently contextual, defined to be
// enforced in particular circumstances", so the store supports atomic
// snapshots (a rule must be evaluated against one consistent world view)
// and change hooks (the policy engine reacts to context change).
package ctxmodel

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// A Value is a typed context attribute value. Exactly one field is set.
type Value struct {
	Kind ValueKind
	Str  string
	Num  float64
	Bool bool
	Time time.Time
}

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	KindString ValueKind = iota + 1
	KindNumber
	KindBool
	KindTime
)

// String builds a string value.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Number builds a numeric value.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Bool builds a boolean value.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Time builds a time value.
func Time(t time.Time) Value { return Value{Kind: KindTime, Time: t} }

// Equal reports whether two values are identical in kind and content.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindString:
		return v.Str == o.Str
	case KindNumber:
		return v.Num == o.Num
	case KindBool:
		return v.Bool == o.Bool
	case KindTime:
		return v.Time.Equal(o.Time)
	default:
		return false
	}
}

// String implements fmt.Stringer.
func (v Value) String() string {
	switch v.Kind {
	case KindString:
		return v.Str
	case KindNumber:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	case KindTime:
		return v.Time.Format(time.RFC3339)
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// A Snapshot is an immutable view of the context at one instant.
type Snapshot struct {
	values  map[string]Value
	Version uint64
	At      time.Time
}

// Get returns the value of an attribute.
func (s Snapshot) Get(key string) (Value, bool) {
	v, ok := s.values[key]
	return v, ok
}

// Keys returns the attribute names in sorted order.
func (s Snapshot) Keys() []string {
	out := make([]string, 0, len(s.values))
	for k := range s.values {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// A Change describes one attribute update delivered to hooks.
type Change struct {
	Key      string
	Old, New Value
	HadOld   bool
	Version  uint64
}

// A Store is a concurrent context store with versioned snapshots and
// change hooks. The zero value is ready to use.
type Store struct {
	mu      sync.RWMutex
	values  map[string]Value
	version uint64
	now     func() time.Time
	// hooks run synchronously, in registration order, after each Set, on
	// the caller's goroutine. The policy engine uses a hook so that
	// context-triggered rules evaluate deterministically.
	hooks []func(Change)
}

// NewStore builds a store; nil clock means time.Now.
func NewStore(clock func() time.Time) *Store {
	return &Store{now: clock}
}

// AddHook registers a synchronous change observer, invoked on the Set
// caller's goroutine after the write commits. Hooks may themselves call
// Set (no lock is held during invocation); they are responsible for their
// own termination.
func (s *Store) AddHook(fn func(Change)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hooks = append(s.hooks, fn)
}

// Set updates an attribute and notifies the hooks. It returns the new
// store version.
func (s *Store) Set(key string, v Value) uint64 {
	s.mu.Lock()
	old, had := s.values[key]
	if s.values == nil {
		s.values = make(map[string]Value)
	}
	s.values[key] = v
	s.version++
	ver := s.version
	ch := Change{Key: key, Old: old, New: v, HadOld: had, Version: ver}
	hooks := s.hooks
	s.mu.Unlock()

	for _, h := range hooks {
		h(ch)
	}
	return ver
}

// Delete removes an attribute.
func (s *Store) Delete(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.values, key)
	s.version++
}

// DeleteMatching removes every attribute whose key the predicate accepts,
// returning how many were dropped. Erasure obligations use it to purge
// context state derived from an erased subject (attributes are keyed by
// subject-prefixed names by convention, e.g. "ann/heart-rate"). Hooks are
// deliberately not notified: erasure removes facts, it must not look like
// new context to react to.
func (s *Store) DeleteMatching(match func(key string) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.values {
		if match(k) {
			delete(s.values, k)
			n++
		}
	}
	if n > 0 {
		s.version++
	}
	return n
}

// Get returns the current value of one attribute.
func (s *Store) Get(key string) (Value, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.values[key]
	return v, ok
}

// Snapshot returns an immutable copy of the whole context.
func (s *Store) Snapshot() Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cp := make(map[string]Value, len(s.values))
	for k, v := range s.values {
		cp[k] = v
	}
	return Snapshot{values: cp, Version: s.version, At: s.clock()}
}

// clock returns the store's time source (zero-value stores use time.Now).
func (s *Store) clock() time.Time {
	if s.now == nil {
		return time.Now()
	}
	return s.now()
}

// MakeSnapshot builds a snapshot directly from a map; used by tests and by
// policy evaluation over hypothetical contexts.
func MakeSnapshot(values map[string]Value) Snapshot {
	cp := make(map[string]Value, len(values))
	for k, v := range values {
		cp[k] = v
	}
	return Snapshot{values: cp}
}
