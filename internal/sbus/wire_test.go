package sbus

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
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
		Trace: telemetry.TraceContext{
			ID:  telemetry.TraceID{Hi: 0x0123456789abcdef, Lo: 0xfedcba9876543210},
			Hop: 3,
		},
		EgressNs: 1_700_000_000_123_456_789,
	}
}

// testBatch encodes one frame of every kind as a single batch.
func testBatch(t testing.TB) ([]LinkFrame, []byte) {
	t.Helper()
	frames := []LinkFrame{
		testFrame(),
		{Kind: "hello", Bus: "b", SrcJurisdiction: ifc.MustLabel("eu")},
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
	return frames, buf
}

func TestWireFrameRoundTrip(t *testing.T) {
	frames, buf := testBatch(t)
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
	generic, err := AppendLinkFrame(nil, &f)
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

// wantVersionRefused checks that each batch is refused as a protocol
// mismatch whose message names the one version this bus speaks.
func wantVersionRefused(t *testing.T, cases map[string][]byte) {
	t.Helper()
	for name, data := range cases {
		_, err := DecodeBatch(data)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("%s: err = %v, want ErrProtocol", name, err)
		}
		if !containsAll(err.Error(), "v5") {
			t.Fatalf("%s: rejection should name v5, got %q", name, err)
		}
	}
}

// TestWireRefusesOtherVersions: a batch header from an older binary
// protocol (v3, v4) is refused; there is no negotiation down to it.
func TestWireRefusesOtherVersions(t *testing.T) {
	wantVersionRefused(t, map[string][]byte{
		"v3": {linkMagic, 3, 0, 0},
		"v4": {linkMagic, 4, 0, 0},
	})
}

func TestWireRejectsLegacyJSONCleanly(t *testing.T) {
	// A protocol v1 peer sent one JSON object per transport frame.
	v1 := []byte(`{"kind":"hello","bus":"home","src_j":"eu"}`)
	wantVersionRefused(t, map[string][]byte{"v1 json": v1})
	_, err := DecodeBatch(v1)
	if !containsAll(err.Error(), "v1") {
		t.Fatalf("rejection message should name v1, got %q", err)
	}
}

func TestWireRejectsFutureVersion(t *testing.T) {
	wantVersionRefused(t, map[string][]byte{
		"v6": {linkMagic, 6, 0, 0},
		"v9": {linkMagic, 9, 0, 0},
	})
}

func TestWireRejectsBadMagicAndKind(t *testing.T) {
	if _, err := DecodeBatch([]byte{0x00, 2, 0, 0}); !errors.Is(err, ErrWire) {
		t.Fatalf("bad magic: err = %v, want ErrWire", err)
	}
	if _, err := DecodeBatch(nil); !errors.Is(err, ErrWire) {
		t.Fatalf("empty: err = %v, want ErrWire", err)
	}
	buf, err := AppendLinkFrame(AppendBatchHeader(nil, 1), &LinkFrame{Kind: "hello", Bus: "b"})
	if err != nil {
		t.Fatal(err)
	}
	buf[batchHeaderLen] = 0xEE // unknown kind byte
	if _, err := DecodeBatch(buf); !errors.Is(err, ErrWire) {
		t.Fatalf("unknown kind: err = %v, want ErrWire", err)
	}
	if _, err := AppendLinkFrame(nil, &LinkFrame{Kind: "bogus"}); !errors.Is(err, ErrWire) {
		t.Fatalf("encode unknown kind: err = %v, want ErrWire", err)
	}
}

// TestWireFrameCountBounded: the header's frame count comes from the peer,
// so a 4-byte batch claiming 65 535 frames is refused before the decoder
// sizes anything on it (it used to preallocate ~14 MB per call).
func TestWireFrameCountBounded(t *testing.T) {
	hdr := []byte{linkMagic, linkVersion, 0xFF, 0xFF}
	if _, err := DecodeBatch(hdr); !errors.Is(err, ErrWire) {
		t.Fatalf("oversized count: err = %v, want ErrWire", err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		_, _ = DecodeBatch(hdr)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per > 4096 {
		t.Fatalf("refusing an oversized count allocated %d B per call, want < 4 KiB", per)
	}
}

// FuzzDecodeBatch feeds arbitrary bytes to the link decoder: it must never
// panic, and any batch it accepts must survive re-encoding unchanged.
func FuzzDecodeBatch(f *testing.F) {
	_, batch := testBatch(f)
	f.Add(batch)
	for cut := 1; cut < len(batch); cut++ {
		f.Add(batch[:cut])
	}
	f.Add([]byte(`{"kind":"hello","bus":"home"}`))
	for _, v := range []byte{3, 4, 6} {
		f.Add([]byte{linkMagic, v, 0, 1})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := DecodeBatch(data)
		if err != nil {
			return
		}
		buf := AppendBatchHeader(nil, len(frames))
		for i := range frames {
			if buf, err = AppendLinkFrame(buf, &frames[i]); err != nil {
				t.Fatalf("re-encode frame %d: %v", i, err)
			}
		}
		again, err := DecodeBatch(buf)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, frames) {
			t.Fatalf("round trip changed frames:\n got %+v\nwant %+v", again, frames)
		}
	})
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

// TestDecodeBatchLabelsAllocateNothing: a frame's labels are resolved from
// the read buffer through the intern table, so a frame whose labels are
// canonical allocates the frame slice, its six non-empty strings and the
// payload copy, and no label strings.
func TestDecodeBatchLabelsAllocateNothing(t *testing.T) {
	buf := encodeBatch(t, testFrame())
	if n := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBatch(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 1+6+1 {
		t.Fatalf("DecodeBatch of one canonical-label frame: %v allocations, want 8", n)
	}
}
