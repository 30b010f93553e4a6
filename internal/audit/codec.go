package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"lciot/internal/ifc"
)

// This file is the binary wire form of a Record for durable storage
// (internal/store) and any other consumer that needs a compact, canonical
// encoding with the hashes preserved. It follows the zero-alloc append
// style of msg.AppendBinary: the encoder appends to a caller-owned buffer,
// so steady-state encoding allocates nothing.
//
// Layout (all integers big-endian; byte offsets on the left):
//
//	 0  u8  version (recordWireV3)
//	 1  u64 seq | 9 s64 unixSec | 17 u32 nsec | 21 u8 kind | 22 u8 layer
//	23  u8  flags
//	24  15 × (u32 len | bytes): domain, src, dst,
//	                        srcS, srcI, srcJ, srcP, dstS, dstI, dstJ, dstP,
//	                        dataID, agent, note, traceID
//	    32B prevHash | 32B hash (the last 64 bytes)
//
// The chained hash preimage (computeHash in record.go) is the wire form
// minus the version byte, the flags byte and the stored hash:
//
//	preimage = wire[1:23] ‖ wire[24:len-32]
//
// so a record whose fields are in their canonical forms can be verified
// from its bytes alone (VerifyRecordBinary). Both are built by the same
// appenders (appendPreimageHead, appendPreimageBody), so the two layouts
// cannot drift; a test over random records checks the identity.
//
// v2 extended v1 with the obligation facet labels of both contexts and a
// flags byte whose low bit marks a chain-preserving tombstone (a record
// redacted in place by an erasure obligation). v3 extends v2 with the
// flow-tracing ID, which is part of the hash preimage like every other
// payload field.
//
// Security-context labels travel as their canonical String forms (labels
// are interned, so String is a pointer read) and are re-interned on
// decode — by lookup when the label is already interned (ifc.CanonicalLabel),
// by ifc.ParseLabel otherwise; the hashes are carried verbatim, so a
// decoded record verifies against the same chain it was encoded from.

// recordWireV3 is the current binary record version byte.
const recordWireV3 = 3

// recordFlagRedacted marks a tombstone in the record flags byte.
const recordFlagRedacted = 1 << 0

// Fixed offsets of the wire form (see the layout above).
const (
	wireFlagsAt  = 23 // the flags byte, outside the hash preimage
	wireFieldsAt = 24 // the first length-prefixed field
	wireHashLen  = 32
)

// ErrRecordCodec is the sentinel for malformed binary records.
var ErrRecordCodec = errors.New("audit: malformed binary record")

// HashRecord recomputes the chained hash of r from its content and
// PrevHash. Verifiers that stream records from storage use it to check
// each record without materialising a whole segment.
func HashRecord(r *Record) [32]byte { return computeHash(r) }

// AppendRecordBinary appends the binary form of r to dst and returns the
// extended slice.
func AppendRecordBinary(dst []byte, r *Record) []byte {
	dst = append(dst, recordWireV3)
	dst = appendPreimageHead(dst, r)
	var flags byte
	if r.Redacted {
		flags |= recordFlagRedacted
	}
	dst = append(dst, flags)
	dst = appendPreimageBody(dst, r)
	return append(dst, r.Hash[:]...)
}

// appendPreimageHead appends wire[1:23]: seq, time, kind and layer.
func appendPreimageHead(dst []byte, r *Record) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Time.Unix()))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Time.Nanosecond()))
	return append(dst, byte(r.Kind), byte(r.Layer))
}

// appendPreimageBody appends wire[24:len-32]: the fifteen length-prefixed
// fields and PrevHash.
func appendPreimageBody(dst []byte, r *Record) []byte {
	for _, f := range [...]string{
		r.Domain, string(r.Src), string(r.Dst),
		r.SrcCtx.Secrecy.String(), r.SrcCtx.Integrity.String(),
		r.SrcCtx.Jurisdiction.String(), r.SrcCtx.Purpose.String(),
		r.DstCtx.Secrecy.String(), r.DstCtx.Integrity.String(),
		r.DstCtx.Jurisdiction.String(), r.DstCtx.Purpose.String(),
		r.DataID, string(r.Agent), r.Note, r.TraceID,
	} {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f)))
		dst = append(dst, f...)
	}
	return append(dst, r.PrevHash[:]...)
}

// DecodeRecordBinary parses one binary record produced by
// AppendRecordBinary, consuming the whole input.
func DecodeRecordBinary(data []byte) (Record, error) {
	var r Record
	if len(data) < 1 {
		return r, fmt.Errorf("%w: empty record", ErrRecordCodec)
	}
	if data[0] != recordWireV3 {
		// The hash preimage changes with the record layout (see record.go),
		// so a cross-version decode could never chain-verify anyway: stores
		// written by another version must be read with that version.
		return r, fmt.Errorf("%w: record version %d, this build reads v%d (verify old stores with the lciot version that wrote them)",
			ErrRecordCodec, data[0], recordWireV3)
	}
	off := 1
	need := func(n int) error {
		if off+n > len(data) {
			return fmt.Errorf("%w: truncated at offset %d", ErrRecordCodec, off)
		}
		return nil
	}
	if err := need(8 + 8 + 4 + 3); err != nil {
		return r, err
	}
	r.Seq = binary.BigEndian.Uint64(data[off:])
	off += 8
	sec := int64(binary.BigEndian.Uint64(data[off:]))
	off += 8
	nsec := binary.BigEndian.Uint32(data[off:])
	off += 4
	r.Time = time.Unix(sec, int64(nsec)).UTC()
	r.Kind = EventKind(data[off])
	r.Layer = Layer(data[off+1])
	r.Redacted = data[off+2]&recordFlagRedacted != 0
	off += 3

	var fields [15][]byte
	for i := range fields {
		if err := need(4); err != nil {
			return r, err
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		off += 4
		if err := need(n); err != nil {
			return r, err
		}
		fields[i] = data[off : off+n]
		off += n
	}
	r.Domain = string(fields[0])
	r.Src = ifc.EntityID(fields[1])
	r.Dst = ifc.EntityID(fields[2])
	for i, dst := range [...]*ifc.Label{
		&r.SrcCtx.Secrecy, &r.SrcCtx.Integrity, &r.SrcCtx.Jurisdiction, &r.SrcCtx.Purpose,
		&r.DstCtx.Secrecy, &r.DstCtx.Integrity, &r.DstCtx.Jurisdiction, &r.DstCtx.Purpose,
	} {
		l, ok := ifc.CanonicalLabel(fields[3+i])
		if !ok {
			var err error
			if l, err = ifc.ParseLabel(string(fields[3+i])); err != nil {
				return r, fmt.Errorf("%w: context label %d: %v", ErrRecordCodec, i, err)
			}
		}
		*dst = l
	}
	r.DataID = string(fields[11])
	r.Agent = ifc.PrincipalID(fields[12])
	r.Note = string(fields[13])
	r.TraceID = string(fields[14])

	if err := need(64); err != nil {
		return r, err
	}
	copy(r.PrevHash[:], data[off:off+32])
	copy(r.Hash[:], data[off+32:off+64])
	off += 64
	if off != len(data) {
		return r, fmt.Errorf("%w: %d trailing bytes", ErrRecordCodec, len(data)-off)
	}
	return r, nil
}

// VerifyRecordBinary proves one binary record's content hash from its
// bytes, without decoding it: it checks the layout, checks that every
// context label is spelled in its canonical interned form, and hashes the
// preimage straight out of the wire form (wire[1:23] ‖ wire[24:len-32]).
// ok reports that decoding data and calling HashRecord would succeed and
// give the stored hash; seq, prev and hash are then the record's.
//
// ok is false — "not proven", not "forged" — whenever the bytes alone
// cannot show that: a malformed or other-version record, a tombstone
// (linkage-only, checked on the decoded record), nsec outside [0, 1e9)
// (decode normalises the time, so its preimage differs from the bytes), a
// label that is not the canonical form of a valid interned label, or a
// hash that does not match. Callers fall back to DecodeRecordBinary and
// HashRecord for the verdict.
func VerifyRecordBinary(data []byte) (seq uint64, prev, hash [32]byte, ok bool) {
	if len(data) < wireFieldsAt || data[0] != recordWireV3 ||
		data[wireFlagsAt]&recordFlagRedacted != 0 || // a tombstone: linkage only
		binary.BigEndian.Uint32(data[17:]) >= 1e9 { // nsec: decode would normalise the time
		return
	}
	off := wireFieldsAt
	for i := 0; i < 15; i++ {
		if len(data)-off < 4 {
			return
		}
		n := binary.BigEndian.Uint32(data[off:])
		off += 4
		if uint64(len(data)-off) < uint64(n) {
			return
		}
		if i >= 3 && i <= 10 { // the eight context labels
			if _, canon := ifc.CanonicalLabel(data[off : off+int(n)]); !canon {
				return
			}
		}
		off += int(n)
	}
	if len(data)-off != 2*wireHashLen {
		return
	}
	s := hasherPool.Get().(*hashScratch)
	s.h.Reset()
	s.h.Write(data[1:wireFlagsAt])
	s.h.Write(data[wireFieldsAt : len(data)-wireHashLen])
	sum := [32]byte(s.h.Sum(s.sum[:0]))
	hasherPool.Put(s)
	if string(sum[:]) != string(data[len(data)-wireHashLen:]) {
		return
	}
	copy(prev[:], data[off:])
	return binary.BigEndian.Uint64(data[1:]), prev, sum, true
}
