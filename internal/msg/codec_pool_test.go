package msg

import (
	"bytes"
	"sync"
	"testing"
)

// TestAppendBinaryMatchesEncodeBinary: the append-style API and the pooled
// encoder produce identical bytes, and appending after a prefix leaves the
// prefix intact.
func TestAppendBinaryMatchesEncodeBinary(t *testing.T) {
	m := sampleMessage()
	enc, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	app, err := AppendBinary(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, app) {
		t.Fatalf("AppendBinary diverges from EncodeBinary:\n%x\n%x", app, enc)
	}
	prefixed, err := AppendBinary([]byte("prefix"), m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(prefixed, []byte("prefix")) || !bytes.Equal(prefixed[6:], enc) {
		t.Fatal("AppendBinary corrupted the destination prefix")
	}
}

// TestEncodeResultNotAliased: the returned slice must be the caller's own —
// a subsequent encode reusing the pooled scratch must not overwrite it.
func TestEncodeResultNotAliased(t *testing.T) {
	a := New("t").Set("k", Str("aaaaaaaaaaaaaaaa"))
	b := New("t").Set("k", Str("bbbbbbbbbbbbbbbb"))
	ea1, err := EncodeBinary(a)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), ea1...)
	if _, err := EncodeBinary(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea1, snapshot) {
		t.Fatal("pooled scratch aliased into a returned encoding")
	}
}

// TestEncodeConcurrent exercises the scratch pool under -race.
func TestEncodeConcurrent(t *testing.T) {
	m := sampleMessage()
	want, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := sampleMessage()
			for i := 0; i < 200; i++ {
				got, err := EncodeBinary(local)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent encode diverged: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEncodeAllocs: steady-state encoding allocates only the returned
// slice (plus encoding internals it cannot avoid).
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomised under -race; alloc counts are not meaningful")
	}
	m := sampleMessage()
	if _, err := EncodeBinary(m); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := EncodeBinary(m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("EncodeBinary allocates %.1f/op, want <= 2", allocs)
	}
}
