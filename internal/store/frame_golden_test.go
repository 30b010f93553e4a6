package store

import (
	"encoding/hex"
	"errors"
	"testing"
)

// goldenSegHeader is appendSegHeader(nil, 42): magic "LCWS", version 1,
// reserved, firstSeq. Segment files on disk carry it; it must not change.
const goldenSegHeader = "4c435753" + "0001" + "0000" + "000000000000002a"

func TestSegHeaderGolden(t *testing.T) {
	b := appendSegHeader(nil, 42)
	if got := hex.EncodeToString(b); got != goldenSegHeader {
		t.Fatalf("header changed:\n got %s\nwant %s", got, goldenSegHeader)
	}
	if first, err := parseSegHeader(b); err != nil || first != 42 {
		t.Fatalf("parseSegHeader = %d, %v", first, err)
	}
	if first, err := parseSegHeader(append(b, 0xFF)); err != nil || first != 42 {
		t.Fatalf("parseSegHeader with a frame after the header = %d, %v", first, err)
	}
}

// TestSegHeaderErrorTexts pins the text of each refusal.
func TestSegHeaderErrorTexts(t *testing.T) {
	good := appendSegHeader(nil, 42)
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	badVersion := append([]byte(nil), good...)
	badVersion[5] = 2
	for _, tc := range []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "store: segment corrupt: bad header"},
		{"short", good[:segHeaderLen-1], "store: segment corrupt: bad header"},
		{"bad magic", badMagic, "store: segment corrupt: bad header"},
		{"bad version", badVersion, "store: segment corrupt: unsupported segment version 2"},
	} {
		if _, err := parseSegHeader(tc.in); !errors.Is(err, ErrCorrupt) || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
