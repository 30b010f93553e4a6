package sbus

import (
	"bytes"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"lciot/internal/ifc"
)

// goldenBatch is testBatch's encoding: one frame of every kind. Link
// protocol v5 is the only version, so these bytes must not change.
const goldenBatch = "" +
	"4c050005" + // magic, v5, five frames
	"04000000000000002a010008686f6d652d6275730017686f6d652d6275733a616e6e2d6465766963652e6f7574000f616e6e2d616e616c797365722e696e000d7b616e6e2c6d65646963616c7d000a7b686f73702d6465767d0003e288850003e288850006766974616c730008686f73706974616c00046e6f706500000004010203040123456789abcdeffedcba98765432100317979cfe3d85cd15" + // message
	"01000000000000000000000162000000000003e288850003e2888500047b65757d0003e288850000000000000000000000000000000000000000000000000000000000000000000000" + // hello
	"0200000000000000070000000007613a782e6f75740004792e696e0003e288850003e288850003e288850003e2888500017300017000000000000000000000000000000000000000000000000000000000000000" + // connect
	"030000000000000007000000000000000003e288850003e288850003e288850003e2888500000000000664656e6965640000000000000000000000000000000000000000000000000000000000" + // result
	"050000000000000000000000000000000003e288850003e288850003e288850003e288850000000000000000000000000000000000000000000000000000000000000000000000" // disconnect

func TestWireGolden(t *testing.T) {
	frames, buf := testBatch(t)
	if got := hex.EncodeToString(buf); got != goldenBatch {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, goldenBatch)
	}
	got, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
}

// encodeBatch encodes frames as one batch.
func encodeBatch(t *testing.T, frames ...LinkFrame) []byte {
	t.Helper()
	buf := AppendBatchHeader(nil, len(frames))
	for i := range frames {
		var err error
		if buf, err = AppendLinkFrame(buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestWireErrorTexts pins the text of each refusal, one input per path.
// Truncations cut the second of two testFrames (it starts at offset 160),
// so the frame count still fits the bytes and the cut reaches the field.
func TestWireErrorTexts(t *testing.T) {
	two := encodeBatch(t, testFrame(), testFrame())
	labelled := testFrame()
	labelled.SrcSecrecy, labelled.SrcIntegrity = ifc.MustLabel("a1"), ifc.MustLabel("a2")
	labelled.SrcJurisdiction, labelled.SrcPurpose = ifc.MustLabel("a3"), ifc.MustLabel("a4")
	badLabel := func(n string) []byte {
		return bytes.Replace(encodeBatch(t, labelled), []byte("{a"+n+"}"), []byte("xa"+n+"}"), 1)
	}
	badKind := encodeBatch(t, testFrame())
	badKind[batchHeaderLen] = 0xEE
	const (
		wire  = "sbus: malformed link frame: "
		trunc = wire + "truncated at offset "
	)
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, wire + "empty frame"},
		{"bad magic", []byte{0, linkVersion, 0, 0}, wire + "bad magic byte 0x00"},
		{"legacy JSON", []byte(`{"kind":"hello"}`), "sbus: link protocol mismatch: peer speaks legacy JSON link protocol v1; this bus speaks only v5"},
		{"short header", []byte{linkMagic, linkVersion, 0}, wire + "short batch header"},
		{"other version", []byte{linkMagic, 6, 0, 1}, "sbus: link protocol mismatch: peer speaks link protocol v6, this bus speaks only v5"},
		{"oversized count", []byte{linkMagic, linkVersion, 0xFF, 0xFF}, wire + "header claims 65535 frames in 4 bytes"},
		{"unknown kind byte", badKind, wire + "unknown kind byte 238"},
		{"kind", two[:160], trunc + "160"},
		{"id", two[:163], trunc + "161"},
		{"flags", two[:169], trunc + "169"},
		{"bus length", two[:171], trunc + "170"},
		{"bus bytes", two[:175], trunc + "172"},
		{"src", two[:190], trunc + "182"},
		{"dst", two[:210], trunc + "207"},
		{"src secrecy", two[:226], trunc + "224"},
		{"src integrity", two[:240], trunc + "239"},
		{"src jurisdiction", two[:250], trunc + "249"},
		{"src purpose", two[:255], trunc + "254"},
		{"schema", two[:262], trunc + "261"},
		{"agent", two[:270], trunc + "269"},
		{"err", two[:280], trunc + "279"},
		{"payload length", two[:285], trunc + "283"},
		{"payload bytes", two[:289], trunc + "287"},
		{"trailer", two[:300], trunc + "291"},
		{"bad src secrecy", badLabel("1"), wire + `src secrecy: ifc: label "xa1}" is not of the form {tag,...}`},
		{"bad src integrity", badLabel("2"), wire + `src integrity: ifc: label "xa2}" is not of the form {tag,...}`},
		{"bad src jurisdiction", badLabel("3"), wire + `src jurisdiction: ifc: label "xa3}" is not of the form {tag,...}`},
		{"bad src purpose", badLabel("4"), wire + `src purpose: ifc: label "xa4}" is not of the form {tag,...}`},
		{"trailing bytes", append(encodeBatch(t, testFrame()), 0), wire + "1 trailing bytes"},
	}
	for _, tc := range cases {
		if _, err := DecodeBatch(tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	long := testFrame()
	long.Schema = strings.Repeat("s", 1<<16)
	for _, tc := range []struct {
		name string
		f    LinkFrame
		want string
	}{
		{"unknown kind", LinkFrame{Kind: "bogus"}, wire + `unknown kind "bogus"`},
		{"field over 64 KiB", long, wire + "field of 65536 bytes exceeds 64 KiB"},
	} {
		if _, err := AppendLinkFrame(nil, &tc.f); !errors.Is(err, ErrWire) || err.Error() != tc.want {
			t.Errorf("encode %s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
