package msg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
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
// name so the encoding is canonical.

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
	buf = appendString16(buf, m.Type)
	buf = appendString16(buf, m.DataID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(names)))
	for _, name := range names {
		v := m.Attrs[name]
		buf = appendString16(buf, name)
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

// DecodeBinary parses the compact binary form.
func DecodeBinary(data []byte) (*Message, error) {
	d := &decoder{buf: data}
	typ, err := d.string16()
	if err != nil {
		return nil, err
	}
	dataID, err := d.string16()
	if err != nil {
		return nil, err
	}
	n, err := d.uint16()
	if err != nil {
		return nil, err
	}
	m := &Message{Type: typ, DataID: dataID, Attrs: make(map[string]Value, n)}
	for i := 0; i < int(n); i++ {
		name, err := d.string16()
		if err != nil {
			return nil, err
		}
		ft, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch FieldType(ft) {
		case TString:
			s, err := d.bytes32()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Str(string(s))
		case TFloat:
			u, err := d.uint64()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Float(math.Float64frombits(u))
		case TInt:
			u, err := d.uint64()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Int(int64(u))
		case TBool:
			b, err := d.byte()
			if err != nil {
				return nil, err
			}
			m.Attrs[name] = Bool(b != 0)
		case TBytes:
			b, err := d.bytes32()
			if err != nil {
				return nil, err
			}
			owned := make([]byte, len(b))
			copy(owned, b)
			m.Attrs[name] = Bytes(owned)
		default:
			return nil, fmt.Errorf("%w: field %q has type byte %d", ErrCodec, name, ft)
		}
	}
	if len(d.buf[d.off:]) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.buf[d.off:]))
	}
	return m, nil
}

func appendString16(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// decoder is a bounds-checked cursor.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("%w: truncated at offset %d", ErrCodec, d.off)
	}
	return nil
}

func (d *decoder) byte() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decoder) uint16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *decoder) uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) string16() (string, error) {
	n, err := d.uint16()
	if err != nil {
		return "", err
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) bytes32() ([]byte, error) {
	if err := d.need(4); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	if err := d.need(int(n)); err != nil {
		return nil, err
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b, nil
}
