package audit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"lciot/internal/ifc"
	"lciot/internal/wire"
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
// decode by ifc.ParseLabelBytes — by lookup when the label is already
// interned, by parsing otherwise; the hashes are carried verbatim, so a
// decoded record verifies against the same chain it was encoded from.
// Decode reads the bytes through wire.Reader; verify walks the same
// fifteen fields with wire.Fields32, the function the Reader's walk uses.

// recordWireV3 is the current binary record version byte.
const recordWireV3 = 3

// recordFlagRedacted marks a tombstone in the record flags byte.
const recordFlagRedacted = 1 << 0

// Fixed offsets of the wire form (see the layout above).
const (
	wireFlagsAt  = 23 // the flags byte, outside the hash preimage
	wireFieldsAt = 24 // the first length-prefixed field
	wireFields   = 15 // length-prefixed fields
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
	w := wire.NewReader(data, ErrRecordCodec)
	w.Next(1) // the version, checked above
	if head := w.Next(wireFieldsAt - 1); head != nil {
		r.Seq = binary.BigEndian.Uint64(head)
		r.Time = time.Unix(int64(binary.BigEndian.Uint64(head[8:])), int64(binary.BigEndian.Uint32(head[16:]))).UTC()
		r.Kind = EventKind(head[20])
		r.Layer = Layer(head[21])
		r.Redacted = head[22]&recordFlagRedacted != 0
	}
	var fields [wireFields][]byte
	w.Fields32(fields[:])
	if err := w.Err(); err != nil {
		return r, err
	}
	r.Domain = string(fields[0])
	r.Src = ifc.EntityID(fields[1])
	r.Dst = ifc.EntityID(fields[2])
	for i, dst := range [...]*ifc.Label{
		&r.SrcCtx.Secrecy, &r.SrcCtx.Integrity, &r.SrcCtx.Jurisdiction, &r.SrcCtx.Purpose,
		&r.DstCtx.Secrecy, &r.DstCtx.Integrity, &r.DstCtx.Jurisdiction, &r.DstCtx.Purpose,
	} {
		l, err := ifc.ParseLabelBytes(fields[3+i])
		if err != nil {
			return r, fmt.Errorf("%w: context label %d: %v", ErrRecordCodec, i, err)
		}
		*dst = l
	}
	r.DataID = string(fields[11])
	r.Agent = ifc.PrincipalID(fields[12])
	r.Note = string(fields[13])
	r.TraceID = string(fields[14])

	if h := w.Next(2 * wireHashLen); h != nil {
		copy(r.PrevHash[:], h)
		copy(r.Hash[:], h[wireHashLen:])
	}
	w.End()
	return r, w.Err()
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
	var fields [wireFields][]byte
	n, whole := wire.Fields32(data[wireFieldsAt:], fields[:]) // the walk decode takes
	if !whole || len(data)-wireFieldsAt-n != 2*wireHashLen ||
		!ifc.AllCanonical(fields[3:11]) { // the eight context labels
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
	copy(prev[:], data[len(data)-2*wireHashLen:])
	return binary.BigEndian.Uint64(data[1:]), prev, sum, true
}
