package msg

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
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

// TestDecodeBinaryCountBounded: the attribute count comes from the peer,
// so a 6-byte payload claiming 65 535 attributes is refused before the
// decoder sizes anything on it: a map sized on that count takes ~12 MB.
func TestDecodeBinaryCountBounded(t *testing.T) {
	payload := []byte{0, 0, 0, 0, 0xFF, 0xFF}
	if _, err := DecodeBinary(payload); !errors.Is(err, ErrCodec) {
		t.Fatalf("oversized count: err = %v, want ErrCodec", err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		_, _ = DecodeBinary(payload)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 4096 {
		t.Fatalf("refusing an oversized count allocated %d B per call, want < 4 KiB", per)
	}
}

// TestEncodeRefusesLongFields: type, data ID and attribute names carry a
// u16 length, so a longer one cannot be encoded. Writing the low 16 bits
// of its length would let its tail decode as fields the sender never set.
func TestEncodeRefusesLongFields(t *testing.T) {
	long := strings.Repeat("x", 1<<16+5)
	withID := New("t")
	withID.DataID = long
	withName := New("t")
	withName.Set(long, Int(1))
	for _, m := range []*Message{New(long), withID, withName} {
		if _, err := EncodeBinary(m); !errors.Is(err, ErrCodec) ||
			err.Error() != "msg: malformed encoding: field of 65541 bytes exceeds 64 KiB" {
			t.Fatalf("EncodeBinary: err = %v", err)
		}
		if _, err := AppendBinary(nil, m); !errors.Is(err, ErrCodec) {
			t.Fatalf("AppendBinary: err = %v", err)
		}
	}
	// The longest field that fits still round-trips.
	m := New("t")
	m.DataID = long[:0xFFFF]
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

// sameMessage reports whether a and b carry the same type, data ID and
// attributes, comparing floats by their bits so a NaN equals itself.
func sameMessage(a, b *Message) bool {
	if a.Type != b.Type || a.DataID != b.DataID || len(a.Attrs) != len(b.Attrs) {
		return false
	}
	for k, v := range a.Attrs {
		o, ok := b.Attrs[k]
		if v.Type == TFloat && o.Type == TFloat {
			if math.Float64bits(v.Float) != math.Float64bits(o.Float) {
				return false
			}
		} else if !ok || !v.Equal(o) {
			return false
		}
	}
	return true
}

// FuzzDecodeBinary feeds arbitrary bytes to the message decoder: it must
// never panic, and any message it accepts must re-encode to bytes that
// decode to the same message and re-encode unchanged.
func FuzzDecodeBinary(f *testing.F) {
	good, err := EncodeBinary(sampleMessage())
	if err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= len(good); cut++ {
		f.Add(good[:cut])
	}
	f.Add([]byte{0, 0, 0, 0, 0xFF, 0xFF}) // a count the bytes cannot hold
	// What an encoder that wrote only the low 16 bits of a 65 541-byte
	// data ID would send: the tail reads as a forged attribute.
	forged := binary.BigEndian.AppendUint16([]byte{0, 1, 't'}, 5)
	forged = append(forged, "dev/7"...)
	forged = append(forged, 0, 1, 0, 5)
	forged = append(forged, "admin"...)
	forged = append(forged, byte(TBool), 1)
	f.Add(forged)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBinary(data)
		if err != nil {
			return
		}
		enc, err := EncodeBinary(m)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !sameMessage(back, m) {
			t.Fatalf("round trip changed the message:\n got %+v\nwant %+v", back, m)
		}
		again, err := EncodeBinary(back)
		if err != nil || string(again) != string(enc) {
			t.Fatalf("second encoding differs (err %v):\n got %x\nwant %x", err, again, enc)
		}
	})
}
