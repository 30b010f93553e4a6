// Package wire is the bounded big-endian cursor every binary decoder in
// lciot reads through: the message codec (msg), the link protocol (sbus),
// the audit record codec (audit) and the segment header (store). Those
// bytes come from peers and from disk, so each read is checked against the
// end of the input here, once, and a decoder keeps only its layout and
// its policy.
//
// A Reader's first failure sticks. Every later read returns a zero value
// and does not move, so a decoder reads its whole layout and checks Err
// once instead of after every field. Err wraps the caller's sentinel and
// names the offset of the read that failed.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// A Reader reads fields from one input without reading past its end.
type Reader struct {
	buf      []byte
	off      int
	sentinel error
	err      error
	// short marks a read past the end at off (reads stop moving once one
	// fails); Err formats it, so the read path never calls fmt.
	short bool
}

// NewReader returns a Reader over b whose errors wrap sentinel.
func NewReader(b []byte, sentinel error) Reader {
	return Reader{buf: b, sentinel: sentinel}
}

// Err reports the first failure, or nil.
func (r *Reader) Err() error {
	if r.short && r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", r.sentinel, r.off)
	}
	return r.err
}

// failed reports whether any failure has stuck.
func (r *Reader) failed() bool { return r.short || r.err != nil }

// Len is the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Next returns the next n bytes, aliasing the input, or nil after a
// failure.
func (r *Reader) Next(n int) []byte {
	if r.failed() || uint(n) > uint(len(r.buf)-r.off) {
		r.short = true
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Next(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Bytes16 reads a u16 length and that many bytes, aliasing the input.
func (r *Reader) Bytes16() []byte { return r.Next(int(r.U16())) }

// Str16 reads a u16 length and that many bytes as a string (a copy).
func (r *Reader) Str16() string { return string(r.Bytes16()) }

// Bytes32 reads a u32 length and that many bytes, aliasing the input.
func (r *Reader) Bytes32() []byte {
	var f [1][]byte
	r.Fields32(f[:])
	return f[0]
}

// Fields32 reads len(dst) consecutive Bytes32 fields into dst.
func (r *Reader) Fields32(dst [][]byte) {
	if r.failed() {
		return
	}
	n, ok := Fields32(r.buf[r.off:], dst)
	r.off += n
	r.short = !ok
}

// Fields32 cuts len(dst) consecutive u32-length-prefixed fields from the
// front of b into dst, aliasing b. It returns the bytes the fields took
// and true, or, when b runs out, the offset of the read that ran past the
// end and false. A verifier that only needs to know whether the fields
// are there walks them with it, with no Reader state to keep in memory:
// audit.VerifyRecordBinary does, on every record recovery reads.
func Fields32(b []byte, dst [][]byte) (int, bool) {
	rest := b
	for i := range dst {
		if len(rest) < 4 {
			return len(b) - len(rest), false
		}
		n := uint(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if n > uint(len(rest)) {
			return len(b) - len(rest), false
		}
		dst[i], rest = rest[:n:n], rest[n:]
	}
	return len(b) - len(rest), true
}

// Count returns n, a count of items the input declares, when the unread
// bytes can hold n items of at least minLen bytes each; otherwise it fails
// and returns 0. A decoder sizes memory on the count only after this, so a
// short input cannot make it allocate for items that are not there.
func (r *Reader) Count(n, minLen int, what string) int {
	if r.failed() {
		return 0
	}
	if n > r.Len()/minLen {
		r.err = fmt.Errorf("%w: header claims %d %s in %d bytes", r.sentinel, n, what, len(r.buf))
		return 0
	}
	return n
}

// Fail records the caller's own refusal (a bad kind, type byte or label)
// unless an earlier failure already stuck.
func (r *Reader) Fail(format string, args ...any) {
	if !r.failed() {
		r.err = fmt.Errorf("%w: %s", r.sentinel, fmt.Sprintf(format, args...))
	}
}

// End fails if any input is left unread.
func (r *Reader) End() {
	if !r.failed() && r.off != len(r.buf) {
		r.err = fmt.Errorf("%w: %d trailing bytes", r.sentinel, len(r.buf)-r.off)
	}
}

// AppendStr16 appends s with its u16 length prefix. A string longer than
// 65 535 bytes is refused with an error wrapping sentinel: writing the low
// 16 bits of its length would let its tail decode as fields the sender
// never wrote.
func AppendStr16(dst []byte, s string, sentinel error) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return dst, fmt.Errorf("%w: field of %d bytes exceeds 64 KiB", sentinel, len(s))
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...), nil
}
