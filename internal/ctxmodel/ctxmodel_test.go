package ctxmodel

import (
	"sync"
	"testing"
	"time"
)

func TestValueConstructorsAndEquality(t *testing.T) {
	now := time.Unix(1000, 0)
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"string-equal", String("x"), String("x"), true},
		{"string-diff", String("x"), String("y"), false},
		{"number-equal", Number(1.5), Number(1.5), true},
		{"number-diff", Number(1.5), Number(2), false},
		{"bool-equal", Bool(true), Bool(true), true},
		{"bool-diff", Bool(true), Bool(false), false},
		{"time-equal", Time(now), Time(now), true},
		{"time-diff", Time(now), Time(now.Add(time.Second)), false},
		{"kind-mismatch", String("1"), Number(1), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Fatalf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestValueString(t *testing.T) {
	if String("home").String() != "home" {
		t.Error("string render")
	}
	if Number(2.5).String() != "2.5" {
		t.Error("number render:", Number(2.5).String())
	}
	if Bool(true).String() != "true" {
		t.Error("bool render")
	}
	if (Value{}).String() != "Value(kind=0)" {
		t.Error("zero value render:", (Value{}).String())
	}
}

func TestStoreSetGetDelete(t *testing.T) {
	s := NewStore(nil)
	v1 := s.Set("location", String("home"))
	v2 := s.Set("heart-rate", Number(72))
	if v2 <= v1 {
		t.Fatal("versions must increase")
	}
	got, ok := s.Get("location")
	if !ok || got.Str != "home" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	s.Delete("location")
	if _, ok := s.Get("location"); ok {
		t.Fatal("deleted key still present")
	}
}

// TestStoreZeroValueReady: a Store declared without NewStore accepts
// every call, and its snapshots are stamped with the current time.
func TestStoreZeroValueReady(t *testing.T) {
	var s Store
	if _, ok := s.Get("location"); ok {
		t.Fatal("empty store has a value")
	}
	s.Delete("location")
	if v := s.Set("location", String("home")); v != 2 {
		t.Fatalf("Set after one Delete returned version %d, want 2", v)
	}
	before := time.Now()
	snap := s.Snapshot()
	if got, ok := snap.Get("location"); !ok || got.Str != "home" {
		t.Fatalf("snapshot location = %v, %v", got, ok)
	}
	if snap.At.Before(before) || snap.At.After(time.Now()) {
		t.Fatalf("snapshot stamped %v, want the current time", snap.At)
	}
	if n := s.DeleteMatching(func(string) bool { return true }); n != 1 {
		t.Fatalf("DeleteMatching dropped %d, want 1", n)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	clock := time.Unix(5000, 0)
	s := NewStore(func() time.Time { return clock })
	s.Set("emergency", Bool(false))

	snap := s.Snapshot()
	s.Set("emergency", Bool(true))

	// The snapshot must not see the later write.
	v, ok := snap.Get("emergency")
	if !ok || v.Bool {
		t.Fatalf("snapshot leaked later write: %v", v)
	}
	v2, _ := s.Snapshot().Get("emergency")
	if !v2.Bool {
		t.Fatal("store lost write")
	}
	if snap.At != clock {
		t.Fatalf("snapshot At = %v", snap.At)
	}
	if s.Snapshot().Version <= snap.Version {
		t.Fatal("version did not advance")
	}
}

func TestSnapshotKeysSorted(t *testing.T) {
	s := NewStore(nil)
	s.Set("z", Number(1))
	s.Set("a", Number(2))
	s.Set("m", Number(3))
	keys := s.Snapshot().Keys()
	want := []string{"a", "m", "z"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("Keys() = %v, want %v", keys, want)
		}
	}
}

func TestMakeSnapshotCopies(t *testing.T) {
	m := map[string]Value{"a": Number(1)}
	snap := MakeSnapshot(m)
	m["a"] = Number(2)
	v, _ := snap.Get("a")
	if v.Num != 1 {
		t.Fatal("MakeSnapshot aliased caller map")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			key := string(rune('a' + n))
			for j := 0; j < 200; j++ {
				s.Set(key, Number(float64(j)))
				_ = s.Snapshot()
				_, _ = s.Get(key)
			}
		}(i)
	}
	wg.Wait()
	if len(s.Snapshot().Keys()) != 8 {
		t.Fatal("lost keys under concurrency")
	}
}
