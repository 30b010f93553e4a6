package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"lciot/internal/wire"
)

// This file provides the wire encoding: a compact binary TLV form for the
// data path. EncodeBinary builds its output in a pooled scratch buffer —
// the returned slice is an exact-size copy, so steady-state encoding costs
// one allocation per message regardless of growth history.

// ErrCodec is the sentinel for malformed wire data.
var ErrCodec = errors.New("msg: malformed encoding")

// encScratch is the per-encode working set: the byte buffer the message is
// assembled in and the sorted field-name slice. Pooling both keeps encode
// allocations flat at one (the returned copy) per call.
type encScratch struct {
	buf   []byte
	names []string
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// maxPooledScratch and maxPooledNames bound retained scratch capacity so
// one huge message cannot pin a large buffer (or its attribute-name
// strings) in the pool forever.
const (
	maxPooledScratch = 1 << 16
	maxPooledNames   = 1 << 10
)

func putScratch(s *encScratch) {
	if cap(s.buf) > maxPooledScratch {
		s.buf = nil
	}
	if cap(s.names) > maxPooledNames {
		s.names = nil
	} else {
		// Drop the string headers so pooled scratch does not keep the last
		// message's attribute names reachable.
		clear(s.names[:cap(s.names)])
	}
	encPool.Put(s)
}

// sortedFieldNames fills dst with the message's attribute names, sorted.
func sortedFieldNames(dst []string, m *Message) []string {
	dst = dst[:0]
	for k := range m.Attrs {
		dst = append(dst, k)
	}
	sort.Strings(dst)
	return dst
}

// Binary layout:
//
//	u16 len(type) | type | u16 len(dataID) | dataID | u16 nattrs |
//	repeated: u16 len(name) | name | u8 fieldType | value
//
// where value is: u32 len + bytes (string/bytes), 8-byte IEEE754 (float),
// 8-byte two's complement (int), 1 byte (bool). Field order is sorted by
// name so the encoding is canonical. A type, data ID or name longer than
// 65 535 bytes is refused rather than written with a truncated length, and
// the decoder reads through wire.Reader, which bounds nattrs by the bytes
// that follow before the attribute map is sized on it.

// AppendBinary appends the compact binary form of m to dst and returns the
// extended slice, using the caller-supplied (possibly nil) names scratch
// for field sorting. Callers owning a reusable buffer encode with zero
// amortised allocations; EncodeBinary wraps this with a pooled scratch.
func AppendBinary(dst []byte, m *Message) ([]byte, error) {
	buf, _, err := appendBinary(dst, nil, m)
	return buf, err
}

func appendBinary(buf []byte, names []string, m *Message) ([]byte, []string, error) {
	names = sortedFieldNames(names, m)
	var err error
	if buf, err = wire.AppendStr16(buf, m.Type, ErrCodec); err != nil {
		return nil, names, err
	}
	if buf, err = wire.AppendStr16(buf, m.DataID, ErrCodec); err != nil {
		return nil, names, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(names)))
	for _, name := range names {
		v := m.Attrs[name]
		if buf, err = wire.AppendStr16(buf, name, ErrCodec); err != nil {
			return nil, names, err
		}
		buf = append(buf, byte(v.Type))
		switch v.Type {
		case TString:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Str)))
			buf = append(buf, v.Str...)
		case TFloat:
			buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Float))
		case TInt:
			buf = binary.BigEndian.AppendUint64(buf, uint64(v.Int))
		case TBool:
			if v.Bool {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		case TBytes:
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(v.Bytes)))
			buf = append(buf, v.Bytes...)
		default:
			return nil, names, fmt.Errorf("msg: field %q has invalid type %d", name, v.Type)
		}
	}
	return buf, names, nil
}

// EncodeBinary renders the message in the compact binary form.
func EncodeBinary(m *Message) ([]byte, error) {
	s := encPool.Get().(*encScratch)
	buf, names, err := appendBinary(s.buf[:0], s.names, m)
	s.buf, s.names = buf, names
	if err != nil {
		putScratch(s)
		return nil, err
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	putScratch(s)
	return out, nil
}

// minAttrLen is the smallest encoded attribute: an empty name's u16
// length, the type byte and a bool. DecodeBinary bounds the declared count
// by it before sizing the attribute map.
const minAttrLen = 2 + 1 + 1

// DecodeBinary parses the compact binary form.
func DecodeBinary(data []byte) (*Message, error) {
	r := wire.NewReader(data, ErrCodec)
	typ, dataID := r.Str16(), r.Str16()
	n := r.Count(int(r.U16()), minAttrLen, "attributes")
	if err := r.Err(); err != nil {
		return nil, err
	}
	m := &Message{Type: typ, DataID: dataID, Attrs: make(map[string]Value, n)}
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.Str16()
		switch ft := r.Byte(); FieldType(ft) {
		case TString:
			m.Attrs[name] = Str(string(r.Bytes32()))
		case TFloat:
			m.Attrs[name] = Float(math.Float64frombits(r.U64()))
		case TInt:
			m.Attrs[name] = Int(int64(r.U64()))
		case TBool:
			m.Attrs[name] = Bool(r.Byte() != 0)
		case TBytes:
			b := r.Bytes32()
			owned := make([]byte, len(b))
			copy(owned, b)
			m.Attrs[name] = Bytes(owned)
		default:
			r.Fail("field %q has type byte %d", name, ft)
		}
	}
	r.End()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
