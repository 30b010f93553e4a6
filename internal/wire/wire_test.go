package wire

import (
	"errors"
	"strings"
	"testing"
)

var errTest = errors.New("test: malformed")

func TestReaderReadsBigEndianFields(t *testing.T) {
	in := []byte{
		0x01,
		0x02, 0x03,
		0x04, 0x05, 0x06, 0x07,
		0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f,
		0x00, 0x02, 'h', 'i',
		0x00, 0x00, 0x00, 0x01, 'x',
		0x00, 0x01, 'y',
	}
	r := NewReader(in, errTest)
	if b := r.Byte(); b != 0x01 {
		t.Fatalf("Byte = %#x", b)
	}
	if v := r.U16(); v != 0x0203 {
		t.Fatalf("U16 = %#x", v)
	}
	if b := r.Next(4); string(b) != "\x04\x05\x06\x07" {
		t.Fatalf("Next(4) = %x", b)
	}
	if v := r.U64(); v != 0x08090a0b0c0d0e0f {
		t.Fatalf("U64 = %#x", v)
	}
	if s := r.Str16(); s != "hi" {
		t.Fatalf("Str16 = %q", s)
	}
	b := r.Bytes32()
	if string(b) != "x" || &b[0] != &in[23] {
		t.Fatalf("Bytes32 = %q, want an alias of the input", b)
	}
	if b := r.Bytes16(); string(b) != "y" || cap(b) != 1 {
		t.Fatalf("Bytes16 = %q (cap %d)", b, cap(b))
	}
	r.End()
	if err := r.Err(); err != nil || r.Len() != 0 {
		t.Fatalf("Err = %v, Len = %d", err, r.Len())
	}
}

// TestReaderFirstFailureSticks: after a read past the end, every read
// returns zero without moving and Err keeps the first failure.
func TestReaderFirstFailureSticks(t *testing.T) {
	r := NewReader([]byte{0, 0x20, 'a', 'b', 1, 2, 3, 4, 5, 6, 7, 8}, errTest)
	if s := r.Str16(); s != "" {
		t.Fatalf("Str16 past the end = %q", s)
	}
	const want = "test: malformed: truncated at offset 2"
	if err := r.Err(); !errors.Is(err, errTest) || err.Error() != want {
		t.Fatalf("Err = %v, want %q", err, want)
	}
	if v := r.U64(); v != 0 || r.Len() != 10 {
		t.Fatalf("U64 after a failure = %d, Len = %d", v, r.Len())
	}
	r.Fail("bad thing %d", 1)
	r.End()
	if r.Count(1, 1, "items") != 0 || r.Err().Error() != want {
		t.Fatalf("a later failure replaced the first: %v", r.Err())
	}
}

func TestReaderRefusals(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(r *Reader)
		want string
	}{
		{"u32 length past the end", func(r *Reader) { r.Bytes32() }, "truncated at offset 4"},
		{"next", func(r *Reader) { r.Next(7) }, "truncated at offset 0"},
		{"second of two fields", func(r *Reader) { r.Fields32(make([][]byte, 2)) }, "truncated at offset 4"},
		{"trailing", func(r *Reader) { r.U16(); r.End() }, "4 trailing bytes"},
		{"count", func(r *Reader) { r.Count(4, 2, "items") }, "header claims 4 items in 6 bytes"},
		{"fail", func(r *Reader) { r.Fail("field %q has type byte %d", "f", 9) }, `field "f" has type byte 9`},
	} {
		r := NewReader([]byte{0, 0, 0, 9, 0, 0}, errTest)
		tc.read(&r)
		if err := r.Err(); !errors.Is(err, errTest) || err.Error() != "test: malformed: "+tc.want {
			t.Errorf("%s: Err = %v, want %q", tc.name, err, tc.want)
		}
	}
	r := NewReader(make([]byte, 6), errTest)
	if n := r.Count(3, 2, "items"); n != 3 || r.Err() != nil {
		t.Fatalf("Count(3, 2) over 6 bytes = %d, %v", n, r.Err())
	}
	r = NewReader([]byte{0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 2, 'b', 'c'}, errTest)
	fields := make([][]byte, 3)
	if r.Fields32(fields); r.Err() != nil || string(fields[0]) != "a" || len(fields[1]) != 0 || string(fields[2]) != "bc" || r.Len() != 0 {
		t.Fatalf("Fields32 = %q, Len %d, %v", fields, r.Len(), r.Err())
	}
}

func TestAppendStr16(t *testing.T) {
	max := strings.Repeat("s", 0xFFFF)
	b, err := AppendStr16([]byte{9}, max, errTest)
	if err != nil || len(b) != 1+2+0xFFFF || b[1] != 0xFF || b[2] != 0xFF {
		t.Fatalf("AppendStr16 of 65 535 bytes: len %d, err %v", len(b), err)
	}
	r := NewReader(b[1:], errTest)
	if r.Str16() != max || r.Len() != 0 {
		t.Fatal("Str16 does not read back what AppendStr16 wrote")
	}
	b, err = AppendStr16([]byte{9}, max+"s", errTest)
	if !errors.Is(err, errTest) || err.Error() != "test: malformed: field of 65536 bytes exceeds 64 KiB" || len(b) != 1 {
		t.Fatalf("AppendStr16 of 65 536 bytes = %d bytes, %v", len(b), err)
	}
}
