package msg

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	m := New("vitals")
	m.DataID = "reading-42"
	m.Set("patient", Str("ann")).
		Set("heart-rate", Float(71.5)).
		Set("raw", Bytes([]byte{0, 1, 2, 255})).
		Set("ambulatory", Bool(true)).
		Set("count", Int(-12345))
	return m
}

func assertEqualMessages(t *testing.T, a, b *Message) {
	t.Helper()
	if a.Type != b.Type || a.DataID != b.DataID {
		t.Fatalf("header mismatch: %q/%q vs %q/%q", a.Type, a.DataID, b.Type, b.DataID)
	}
	if len(a.Attrs) != len(b.Attrs) {
		t.Fatalf("attr counts %d vs %d", len(a.Attrs), len(b.Attrs))
	}
	for k, v := range a.Attrs {
		if !b.Attrs[k].Equal(v) {
			t.Fatalf("attr %q: %v vs %v", k, v, b.Attrs[k])
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	m := sampleMessage()
	b, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMessages(t, m, back)
}

func TestBinaryDeterministic(t *testing.T) {
	a, err := EncodeBinary(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeBinary(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("binary encoding not canonical")
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	good, err := EncodeBinary(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must be detected, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeBinary(good[:i]); !errors.Is(err, ErrCodec) {
			t.Fatalf("truncation at %d = %v", i, err)
		}
	}
	// Trailing junk is rejected.
	if _, err := DecodeBinary(append(append([]byte{}, good...), 0xAA)); !errors.Is(err, ErrCodec) {
		t.Fatalf("trailing junk = %v", err)
	}
}

func TestEncodeRejectsInvalidValueType(t *testing.T) {
	m := New("t")
	m.Attrs["bad"] = Value{Type: FieldType(99)}
	if _, err := EncodeBinary(m); err == nil {
		t.Fatal("binary encoded invalid type")
	}
}

func TestCodecPropertyRoundTrip(t *testing.T) {
	f := func(typ, dataID, sk string, s string, fl float64, i int64, bo bool, raw []byte) bool {
		if math.IsNaN(fl) {
			fl = 0 // NaN != NaN; canonicalise for the comparison
		}
		m := New(typ)
		m.DataID = dataID
		if sk != "" {
			m.Set(sk, Str(s))
		}
		m.Set("f", Float(fl)).Set("i", Int(i)).Set("b", Bool(bo)).Set("d", Bytes(raw))

		bb, err := EncodeBinary(m)
		if err != nil {
			return false
		}
		bm, err := DecodeBinary(bb)
		if err != nil {
			return false
		}
		for k, v := range m.Attrs {
			if !bm.Attrs[k].Equal(v) {
				return false
			}
		}
		return bm.Type == typ && bm.DataID == dataID
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
