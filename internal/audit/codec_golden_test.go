package audit

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"lciot/internal/ifc"
)

// goldenRecord is a v3 record with every field set.
func goldenRecord() Record {
	r := Record{
		Seq: 7, Time: time.Unix(1700000000, 123456789).UTC(),
		Kind: FlowAllowed, Layer: LayerMessaging, Domain: "hospital",
		Src: "ann-sensor", Dst: "ann-analyser",
		SrcCtx:  ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil),
		DstCtx:  ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"hosp"}),
		DataID:  "d-1",
		Agent:   "hospital",
		Note:    "ok",
		TraceID: "00000000000000010000000000000002",
	}
	for i := range r.PrevHash {
		r.PrevHash[i] = byte(i)
	}
	r.Hash = computeHash(&r)
	return r
}

// The record and tombstone encodings are what durable stores hold; they
// must not change.
const (
	goldenRecordWire = "" +
		"030000000000000007000000006553f100075bcd15010200" + // version, seq, time, kind, layer, flags
		"00000008686f73706974616c0000000a616e6e2d73656e736f720000000c616e6e2d616e616c79736572" + // domain, src, dst
		"0000000d7b616e6e2c6d65646963616c7d00000003e2888500000003e2888500000003e28885" + // src context labels
		"0000000d7b616e6e2c6d65646963616c7d000000067b686f73707d00000003e2888500000003e28885" + // dst context labels
		"00000003642d3100000008686f73706974616c000000026f6b000000203030303030303030303030303030303130303030303030303030303030303032" + // data ID, agent, note, trace ID
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" + // prev hash
		"6890fb6c5bac293af3e2cda7963def9e28596937deb4a7b17fa35f9f31908faf" // hash
	goldenTombstoneWire = "" +
		"030000000000000007000000006553f100075bcd15010201" + // version, seq, time, kind, layer, flags
		"00000008686f73706974616c0000000000000000" + // domain, src, dst
		"00000003e2888500000003e2888500000003e2888500000003e28885" + // src context labels
		"00000003e2888500000003e2888500000003e2888500000003e28885" + // dst context labels
		"00000000000000000000000f65726173757265207265717565737400000000" + // data ID, agent, note, trace ID
		"000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f" + // prev hash
		"6890fb6c5bac293af3e2cda7963def9e28596937deb4a7b17fa35f9f31908faf" // hash
)

func TestRecordBinaryGolden(t *testing.T) {
	r := goldenRecord()
	tomb := r.Redact("erasure request")
	for _, tc := range []struct {
		name string
		r    Record
		want string
	}{
		{"record", r, goldenRecordWire},
		{"tombstone", tomb, goldenTombstoneWire},
	} {
		wire := AppendRecordBinary(nil, &tc.r)
		if got := hex.EncodeToString(wire); got != tc.want {
			t.Errorf("%s encoding changed:\n got %s\nwant %s", tc.name, got, tc.want)
		}
		back, err := DecodeRecordBinary(wire)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back.Hash != tc.r.Hash || back.Seq != tc.r.Seq || back.Redacted != tc.r.Redacted {
			t.Errorf("%s: decoded %+v", tc.name, back)
		}
	}
}

// TestDecodeRecordBinaryErrorTexts pins the text of each refusal, one
// input per path.
func TestDecodeRecordBinaryErrorTexts(t *testing.T) {
	r := goldenRecord()
	good := AppendRecordBinary(nil, &r)
	n := len(good)
	badLabel := bytes.Replace(good, []byte("{hosp}"), []byte("xhosp}"), 1)
	const (
		codec = "audit: malformed binary record: "
		trunc = codec + "truncated at offset "
	)
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, codec + "empty record"},
		{"version", []byte{2, 0, 0}, codec + "record version 2, this build reads v3 (verify old stores with the lciot version that wrote them)"},
		{"head", good[:10], trunc + "1"},
		{"field length", good[:26], trunc + "24"},
		{"field bytes", good[:30], trunc + "28"},
		{"hashes", good[:n-10], trunc + "206"},
		{"bad label", badLabel, codec + `context label 5: ifc: label "xhosp}" is not of the form {tag,...}`},
		{"trailing bytes", append(append([]byte(nil), good...), 0), codec + "1 trailing bytes"},
	}
	for _, tc := range cases {
		_, err := DecodeRecordBinary(tc.in)
		if !errors.Is(err, ErrRecordCodec) || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
