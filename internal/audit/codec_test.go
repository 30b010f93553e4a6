package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"lciot/internal/ifc"
)

// addRecordSeeds seeds a codec fuzz target with committed records (one
// plain, one tombstone), their truncations and bare version bytes.
func addRecordSeeds(f *testing.F) {
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
}

// FuzzDecodeRecordBinary feeds arbitrary bytes to the record decoder: it
// must never panic, and any record it accepts must survive re-encoding
// and decoding unchanged.
func FuzzDecodeRecordBinary(f *testing.F) {
	addRecordSeeds(f)
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

// randomWireRecord builds a hashed record with every field drawn from rng:
// all event kinds, empty and non-empty labels, with and without a trace ID.
func randomWireRecord(rng *rand.Rand) Record {
	labels := []ifc.Label{ifc.EmptyLabel, ifc.MustLabel("medical"), ifc.MustLabel("ann", "medical"),
		ifc.MustLabel("eu/personal-data", "consent", "hospital.example/hosp")}
	label := func() ifc.Label { return labels[rng.Intn(len(labels))] }
	ctx := func() ifc.SecurityContext {
		return ifc.SecurityContext{Secrecy: label(), Integrity: label(), Jurisdiction: label(), Purpose: label()}
	}
	str := func() string {
		b := make([]byte, rng.Intn(3)*rng.Intn(12))
		rng.Read(b)
		return string(b)
	}
	r := Record{
		Seq:    rng.Uint64() >> rng.Intn(64),
		Time:   time.Unix(rng.Int63n(4e9)-1e9, rng.Int63n(1e9)).UTC(),
		Kind:   EventKind(1 + rng.Intn(int(Redaction))),
		Layer:  Layer(1 + rng.Intn(int(LayerPolicy))),
		Domain: str(), Src: ifc.EntityID(str()), Dst: ifc.EntityID(str()),
		SrcCtx: ctx(), DstCtx: ctx(),
		DataID: str(), Agent: ifc.PrincipalID(str()), Note: str(),
	}
	if rng.Intn(2) == 0 {
		var id [16]byte
		rng.Read(id[:])
		r.TraceID = hex.EncodeToString(id[:])
	}
	rng.Read(r.PrevHash[:])
	r.Hash = computeHash(&r)
	return r
}

// TestHashPreimageIsWireForm pins the two layouts together: the chained
// hash is SHA-256 over the wire form minus its version byte, flags byte
// and stored hash, which is what lets VerifyRecordBinary prove a record
// from its bytes.
func TestHashPreimageIsWireForm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		r := randomWireRecord(rng)
		r.Redacted = i%7 == 0 // outside the preimage
		wire := AppendRecordBinary(nil, &r)
		h := sha256.New()
		h.Write(wire[1:wireFlagsAt])
		h.Write(wire[wireFieldsAt : len(wire)-wireHashLen])
		if got := h.Sum(nil); !bytes.Equal(got, r.Hash[:]) {
			t.Fatalf("record %d: hash over wire[1:23] ‖ wire[24:len-32] = %x, computeHash = %x", i, got, r.Hash)
		}
		seq, prev, hash, ok := VerifyRecordBinary(wire)
		if ok == r.Redacted {
			t.Fatalf("record %d (redacted %v): VerifyRecordBinary ok = %v", i, r.Redacted, ok)
		}
		if ok && (seq != r.Seq || prev != r.PrevHash || hash != r.Hash) {
			t.Fatalf("record %d: VerifyRecordBinary = %d, %x, %x", i, seq, prev, hash)
		}
	}
}

func TestVerifyRecordBinaryAllocatesNothing(t *testing.T) {
	r := randomWireRecord(rand.New(rand.NewSource(2)))
	wire := AppendRecordBinary(nil, &r)
	VerifyRecordBinary(wire) // warm the hasher pool
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := VerifyRecordBinary(wire); !ok {
			t.Fatal("not proven")
		}
	}); n != 0 {
		t.Fatalf("VerifyRecordBinary allocates %v times per call", n)
	}
}

// FuzzVerifyRecordBinary differentially checks the byte-level verifier
// against decode + HashRecord. Whenever it proves a record, decoding must
// succeed on a non-tombstone whose recomputed hash is the stored one, with
// the same seq, prev and hash. And it must prove every record that is
// already in canonical wire form (re-encoding reproduces the bytes, the
// flags byte aside) and hashes correctly, so the fast path cannot go
// silently dead.
func FuzzVerifyRecordBinary(f *testing.F) {
	addRecordSeeds(f)
	// rehash stores the hash over the bytes as they stand: a forgery only
	// the "not proven" cases stop.
	rehash := func(b []byte) []byte {
		h := sha256.New()
		h.Write(b[1:wireFlagsAt])
		h.Write(b[wireFieldsAt : len(b)-wireHashLen])
		return h.Sum(b[:len(b)-wireHashLen])
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		r := randomWireRecord(rng)
		r.SrcCtx.Secrecy = ifc.MustLabel("ann", "medical")
		r.Hash = computeHash(&r)
		wire := AppendRecordBinary(nil, &r)
		f.Add(wire)
		bumped := append([]byte(nil), wire...)
		binary.BigEndian.PutUint32(bumped[17:], 1e9+uint32(i))
		f.Add(bumped)
		f.Add(rehash(append([]byte(nil), bumped...)))
		flagged := append([]byte(nil), wire...)
		flagged[wireFlagsAt] |= byte(1 + i%2)
		f.Add(flagged)
		f.Add(rehash(bytes.Replace(wire, []byte("{ann,medical}"), []byte("{medical,ann}"), 1)))
		flipped := append([]byte(nil), wire...)
		flipped[len(flipped)-1] ^= 1
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, prev, hash, ok := VerifyRecordBinary(data)
		rec, err := DecodeRecordBinary(data)
		valid := err == nil && !rec.Redacted && HashRecord(&rec) == rec.Hash
		if ok {
			if !valid {
				t.Fatalf("proven, but decode gives err=%v redacted=%v", err, err == nil && rec.Redacted)
			}
			if seq != rec.Seq || prev != rec.PrevHash || hash != rec.Hash {
				t.Fatalf("proven (%d, %x, %x), decoded (%d, %x, %x)", seq, prev, hash, rec.Seq, rec.PrevHash, rec.Hash)
			}
			return
		}
		if !valid {
			return
		}
		again := AppendRecordBinary(nil, &rec)
		canonical := len(again) == len(data) && bytes.Equal(again[:wireFlagsAt], data[:wireFlagsAt]) &&
			bytes.Equal(again[wireFlagsAt+1:], data[wireFlagsAt+1:])
		// Decoding interned the labels, so a second look must prove it.
		if _, _, _, ok := VerifyRecordBinary(data); canonical && !ok {
			t.Fatalf("canonical valid record not proven: %+v", rec)
		}
	})
}
