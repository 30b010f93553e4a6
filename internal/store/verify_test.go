package store

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lciot/internal/audit"
)

// wireFieldSpans returns the [start, end) spans of the 15 length-prefixed
// fields of a v3 binary record (layout in internal/audit/codec.go).
func wireFieldSpans(t *testing.T, b []byte) [15][2]int {
	t.Helper()
	var spans [15][2]int
	off := 24
	for i := range spans {
		n := int(binary.BigEndian.Uint32(b[off:]))
		off += 4
		spans[i] = [2]int{off, off + n}
		off += n
	}
	if len(b)-off != 64 {
		t.Fatalf("record has %d bytes after its fields, want 64", len(b)-off)
	}
	return spans
}

// setWireField returns b with field i replaced by v, its length prefix
// updated and the stored hashes left as they were.
func setWireField(t *testing.T, b []byte, i int, v string) []byte {
	t.Helper()
	sp := wireFieldSpans(t, b)[i]
	out := append([]byte(nil), b[:sp[0]-4]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(v)))
	out = append(out, v...)
	return append(out, b[sp[1]:]...)
}

// rehashWire overwrites the stored hash with SHA-256 over the bytes the
// preimage is read from (wire[1:23] ‖ wire[24:len-32]): a forger who
// recomputes the hash over exactly what is on disk.
func rehashWire(b []byte) []byte {
	h := sha256.New()
	h.Write(b[1:23])
	h.Write(b[24 : len(b)-32])
	h.Sum(b[:len(b)-32])
	return b
}

// TestAuditStoreTamperMatrix makes one change per case to record 12 of a
// valid 30-record store and pins the verdict of Verify (on the open
// store) and of OpenAudit (on reopen): the error class, the bad seq and
// the message, or acceptance with the chain head unchanged. The accepted
// tampers are non-canonical spellings the decoder normalises back to the
// hashed record: the bytes alone cannot prove them, so they exercise the
// decode fallback.
func TestAuditStoreTamperMatrix(t *testing.T) {
	const target = 12
	const nsecAt = 17
	cases := []struct {
		name   string
		tamper func(b []byte) []byte
		class  error  // nil: the store verifies
		msg    string // expected Verify error text
	}{
		{"intact", func(b []byte) []byte { return b }, nil, ""},
		{"tombstoned by erasure", func(b []byte) []byte {
			r, err := audit.DecodeRecordBinary(b)
			if err != nil {
				t.Fatal(err)
			}
			r = r.Redact("erasure request")
			return audit.AppendRecordBinary(nil, &r)
		}, nil, ""},
		{"payload byte flipped", func(b []byte) []byte {
			sp := wireFieldSpans(t, b)[13] // note
			b[sp[0]] ^= 0x01
			return b
		}, audit.ErrChainBroken, "record 12 content hash mismatch"},
		{"label respelled, hash over bytes", func(b []byte) []byte {
			return rehashWire(setWireField(t, b, 3, "{medical,ann}"))
		}, audit.ErrChainBroken, "record 12 content hash mismatch"},
		{"label respelled, hash kept", func(b []byte) []byte {
			return setWireField(t, b, 3, "{medical,ann}")
		}, nil, ""},
		{"empty label spelled {}, hash kept", func(b []byte) []byte {
			return setWireField(t, b, 4, "{}")
		}, nil, ""},
		{"nsec 1e9+x, hash over bytes", func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[nsecAt:], 1e9+7)
			return rehashWire(b)
		}, audit.ErrChainBroken, "record 12 content hash mismatch"},
		{"time denormalised, hash kept", func(b []byte) []byte {
			sec := binary.BigEndian.Uint64(b[9:])
			nsec := binary.BigEndian.Uint32(b[nsecAt:])
			binary.BigEndian.PutUint64(b[9:], sec-1)
			binary.BigEndian.PutUint32(b[nsecAt:], nsec+1e9)
			return b
		}, nil, ""},
		{"tombstone flag on payload", func(b []byte) []byte {
			b[23] |= 1
			return b
		}, audit.ErrChainBroken, "record 12 marked redacted but carries payload"},
		{"unknown flag bit", func(b []byte) []byte {
			b[23] |= 2
			return b
		}, nil, ""},
		{"prev hash altered", func(b []byte) []byte {
			b[len(b)-64] ^= 0x80
			return b
		}, audit.ErrChainBroken, "record 12 links to wrong predecessor"},
		{"prev hash altered, hash over bytes", func(b []byte) []byte {
			b[len(b)-64] ^= 0x80
			return rehashWire(b)
		}, audit.ErrChainBroken, "record 12 links to wrong predecessor"},
		{"record seq altered, hash over bytes", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[1:], 99)
			return rehashWire(b)
		}, audit.ErrChainBroken, "frame seq 12 carries record seq 99"},
		{"trailing byte", func(b []byte) []byte {
			return append(b, 0)
		}, audit.ErrRecordCodec, "1 trailing bytes"},
		{"version byte", func(b []byte) []byte {
			b[0] = 2
			return b
		}, audit.ErrRecordCodec, "record version 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{SegmentBytes: 2048, NoSync: true}
			s, err := OpenAudit(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			l := audit.NewLog(testClock())
			if err := s.AttachLog(l); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				l.AppendAsync(flowRec(fmt.Sprintf("s%d", i), "analyser"))
			}
			next, head := l.Checkpoint()
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.WAL().RedactMany([]uint64{target}, func(_ uint64, old []byte) ([]byte, error) {
				return tc.tamper(append([]byte(nil), old...)), nil
			}); err != nil {
				t.Fatal(err)
			}

			bad, verr := s.Verify()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, oerr := OpenAudit(dir, opts)
			if tc.class == nil {
				if verr != nil || bad != -1 {
					t.Fatalf("Verify = %d, %v; want intact", bad, verr)
				}
				if oerr != nil {
					t.Fatalf("OpenAudit: %v", oerr)
				}
				defer s2.Close()
				if s2.NextSeq() != next || s2.HeadHash() != head {
					t.Fatalf("reopened head (%d, %x), want (%d, %x)", s2.NextSeq(), s2.HeadHash(), next, head)
				}
				return
			}
			if oerr == nil {
				s2.Close()
				t.Fatal("tampered store reopened")
			}
			if bad != target || !errors.Is(verr, tc.class) || !strings.Contains(verr.Error(), tc.msg) {
				t.Fatalf("Verify = %d, %v; want %d, %v (%q)", bad, verr, target, tc.class, tc.msg)
			}
			if want := fmt.Sprintf("recovered store seq %d: %v", target, verr); oerr.Error() != want {
				t.Fatalf("OpenAudit error %q, want %q", oerr, want)
			}
		})
	}
}
