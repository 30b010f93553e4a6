package msg

import (
	"encoding/hex"
	"errors"
	"testing"
)

// goldenMessage is EncodeBinary(sampleMessage()). The wire form is shared
// with peers over links, so it must not change.
const goldenMessage = "" +
	"0006766974616c73" + // type "vitals"
	"000a72656164696e672d3432" + // data ID "reading-42"
	"0005" + // five attributes, sorted by name
	"000a616d62756c61746f7279" + "04" + "01" + // ambulatory: bool true
	"0005636f756e74" + "03" + "ffffffffffffcfc7" + // count: int -12345
	"000a68656172742d72617465" + "02" + "4051e00000000000" + // heart-rate: float 71.5
	"000770617469656e74" + "01" + "00000003" + "616e6e" + // patient: string "ann"
	"0003726177" + "05" + "00000004" + "000102ff" // raw: bytes 00 01 02 ff

func TestBinaryGolden(t *testing.T) {
	b, err := EncodeBinary(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != goldenMessage {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, goldenMessage)
	}
	back, err := DecodeBinary(b)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMessages(t, sampleMessage(), back)
}

// oneAttr encodes a message of type "t", data ID "d" and the one attribute
// k = v: 13 bytes of header and name before the value, so a cut inside the
// value still leaves room for the declared count.
func oneAttr(t *testing.T, v Value) []byte {
	t.Helper()
	m := New("t")
	m.DataID = "d"
	m.Set("k", v)
	b, err := EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDecodeBinaryErrorTexts pins the text of each refusal, one input per
// path: truncation inside every field, a bad type byte, trailing bytes
// and a count the bytes cannot hold.
func TestDecodeBinaryErrorTexts(t *testing.T) {
	good, err := hex.DecodeString(goldenMessage)
	if err != nil {
		t.Fatal(err)
	}
	badType := append([]byte(nil), good...)
	badType[34] = 9 // ambulatory's type byte
	cut := func(b []byte, n int) []byte { return b[:len(b)-n] }
	const trunc = "msg: malformed encoding: truncated at offset "
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, trunc + "0"},
		{"type length", good[:1], trunc + "0"},
		{"type bytes", good[:5], trunc + "2"},
		{"data ID length", good[:9], trunc + "8"},
		{"data ID bytes", good[:15], trunc + "10"},
		{"attribute count", good[:21], trunc + "20"},
		{"name length", good[:74], trunc + "73"},
		{"name bytes", good[:78], trunc + "75"},
		{"type byte", good[:82], trunc + "82"},
		{"string length", good[:85], trunc + "83"},
		{"string bytes", good[:88], trunc + "87"},
		{"bytes length", good[:97], trunc + "96"},
		{"bytes value", good[:102], trunc + "100"},
		{"bool value", cut(oneAttr(t, Bool(true)), 1), trunc + "12"},
		{"int value", cut(oneAttr(t, Int(1)), 1), trunc + "12"},
		{"float value", cut(oneAttr(t, Float(1)), 1), trunc + "12"},
		{"bad type byte", badType, `msg: malformed encoding: field "ambulatory" has type byte 9`},
		{"trailing bytes", append(append([]byte(nil), good...), 0xAA), "msg: malformed encoding: 1 trailing bytes"},
		// Refused by the count bound, before the attribute map is sized.
		{"oversized count", []byte{0, 0, 0, 0, 0xFF, 0xFF}, "msg: malformed encoding: header claims 65535 attributes in 6 bytes"},
	}
	for _, tc := range cases {
		_, err := DecodeBinary(tc.in)
		if !errors.Is(err, ErrCodec) || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
