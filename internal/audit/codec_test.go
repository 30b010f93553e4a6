package audit

import (
	"reflect"
	"testing"

	"lciot/internal/ifc"
)

// FuzzDecodeRecordBinary feeds arbitrary bytes to the record decoder: it
// must never panic, and any record it accepts must survive re-encoding
// and decoding unchanged.
func FuzzDecodeRecordBinary(f *testing.F) {
	l := NewLog(testClock())
	r := flowRecord("ann-sensor", "ann-analyser", true)
	r.SrcCtx = ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil)
	r.DstCtx = ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"hosp"})
	r.Agent, r.Note, r.TraceID = "hospital", "ok", "00000000000000010000000000000002"
	first := commit(f, l, r)
	second := commit(f, l, flowRecord("bob-sensor", "bob-analyser", false))
	second.Redacted = true
	for _, rec := range []Record{first, second} {
		buf := AppendRecordBinary(nil, &rec)
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Add([]byte{recordWireV3})
	f.Add([]byte{2})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecordBinary(data)
		if err != nil {
			return
		}
		again, err := DecodeRecordBinary(AppendRecordBinary(nil, &rec))
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", again, rec)
		}
	})
}
