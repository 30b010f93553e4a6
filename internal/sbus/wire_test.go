package sbus

import (
	"errors"
	"reflect"
	"testing"

	"lciot/internal/ifc"
	"lciot/internal/msg"
)

func testFrame() LinkFrame {
	return LinkFrame{
		Kind:         "message",
		ID:           42,
		Bus:          "home-bus",
		Src:          "home-bus:ann-device.out",
		Dst:          "ann-analyser.in",
		SrcSecrecy:   ifc.MustLabel("medical", "ann"),
		SrcIntegrity: ifc.MustLabel("hosp-dev"),
		Schema:       "vitals",
		Payload:      []byte{1, 2, 3, 4},
		OK:           true,
		Err:          "nope",
		Agent:        "hospital",
	}
}

func TestWireFrameRoundTrip(t *testing.T) {
	frames := []LinkFrame{
		testFrame(),
		{Kind: "hello", Bus: "b"},
		{Kind: "connect", ID: 7, Src: "a:x.out", Dst: "y.in", Schema: "s", Agent: "p"},
		{Kind: "result", ID: 7, OK: false, Err: "denied"},
		{Kind: "disconnect"},
	}
	buf := AppendBatchHeader(nil, len(frames))
	for i := range frames {
		var err error
		if buf, err = AppendLinkFrame(buf, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := DecodeBatch(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !reflect.DeepEqual(got[i], frames[i]) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got[i], frames[i])
		}
	}
}

func TestWireMessageFrameMatchesGeneric(t *testing.T) {
	m := msg.New("vitals").Set("patient", msg.Str("ann")).Set("heart-rate", msg.Float(72))
	f := testFrame()
	payload, err := msg.EncodeBinary(m)
	if err != nil {
		t.Fatal(err)
	}
	f.Payload = payload
	generic, err := appendLinkFrameV5(nil, &f)
	if err != nil {
		t.Fatal(err)
	}
	f2 := f
	f2.Payload = nil
	direct, err := appendMessageFrame(nil, &f2, m)
	if err != nil {
		t.Fatal(err)
	}
	if string(generic) != string(direct) {
		t.Fatal("single-pass message encoding differs from the generic frame encoding")
	}
}

func TestWireTruncationRejected(t *testing.T) {
	f := testFrame()
	buf := AppendBatchHeader(nil, 1)
	buf, err := AppendLinkFrame(buf, &f)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeBatch(buf[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(buf))
		}
	}
	// Trailing garbage is rejected too.
	if _, err := DecodeBatch(append(buf, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestWireRejectsLegacyJSONCleanly(t *testing.T) {
	// A protocol v1 peer sent one JSON object per transport frame.
	v1 := []byte(`{"kind":"hello","bus":"home","src_j":"eu"}`)
	_, err := DecodeBatch(v1)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("v1 JSON frame: err = %v, want ErrProtocol", err)
	}
	if got := err.Error(); got == "" || !containsAll(got, "v1", "v3") {
		t.Fatalf("rejection message should name both versions, got %q", got)
	}
}

func TestWireRejectsFutureVersion(t *testing.T) {
	buf := AppendBatchHeader(nil, 0)
	buf[1] = 9 // pretend v9
	_, err := DecodeBatch(buf)
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("v9 batch: err = %v, want ErrProtocol", err)
	}
}

func TestWireRejectsBadMagicAndKind(t *testing.T) {
	if _, err := DecodeBatch([]byte{0x00, 2, 0, 0}); !errors.Is(err, ErrWire) {
		t.Fatalf("bad magic: err = %v, want ErrWire", err)
	}
	if _, err := DecodeBatch(nil); !errors.Is(err, ErrWire) {
		t.Fatalf("empty: err = %v, want ErrWire", err)
	}
	buf := AppendBatchHeader(nil, 1)
	buf = append(buf, 0xEE) // unknown kind byte
	if _, err := DecodeBatch(buf); !errors.Is(err, ErrWire) {
		t.Fatalf("unknown kind: err = %v, want ErrWire", err)
	}
	if _, err := AppendLinkFrame(nil, &LinkFrame{Kind: "bogus"}); !errors.Is(err, ErrWire) {
		t.Fatalf("encode unknown kind: err = %v, want ErrWire", err)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
