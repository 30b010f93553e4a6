package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"lciot/internal/wire"
)

// On-disk layout. A segment file is a 16-byte header followed by frames:
//
//	header: "LCWS" | u16 version | u16 reserved | u64 firstSeq
//	frame:  u32 payloadLen | u32 crc32c | u64 seq | s64 unixNano | payload
//
// The CRC (Castagnoli polynomial, the hardware-accelerated one) covers the
// seq, timestamp and payload — everything after the crc field — so a torn
// or bit-flipped frame is detected before anything is decoded. Segments
// are named wal-<firstSeq>.seg with a fixed-width decimal sequence so the
// directory listing sorts in log order.

const (
	segMagic     = "LCWS"
	segVersion   = 1
	segHeaderLen = 16
	// frameOverhead is the fixed framing cost per record.
	frameOverhead = 4 + 4 + 8 + 8
	// maxPayload bounds one record; larger payloads indicate corruption or
	// a caller bug, not data.
	maxPayload = 16 << 20
)

// castagnoli is the CRC32C table shared by all framing code.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a segment that fails structural validation somewhere
// other than its tail (a torn tail is repaired silently; corruption in the
// committed body is surfaced, because fsync ordering makes it impossible
// from a crash alone).
var ErrCorrupt = errors.New("store: segment corrupt")

// segName renders the canonical file name for a segment starting at seq.
func segName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%020d.seg", firstSeq)
}

// appendSegHeader appends a segment header to dst.
func appendSegHeader(dst []byte, firstSeq uint64) []byte {
	dst = append(dst, segMagic...)
	dst = binary.BigEndian.AppendUint16(dst, segVersion)
	dst = binary.BigEndian.AppendUint16(dst, 0)
	return binary.BigEndian.AppendUint64(dst, firstSeq)
}

// parseSegHeader validates a segment header and returns its firstSeq.
func parseSegHeader(b []byte) (uint64, error) {
	r := wire.NewReader(b, ErrCorrupt)
	magic, version, _, firstSeq := r.Next(len(segMagic)), r.U16(), r.U16(), r.U64()
	if r.Err() != nil || string(magic) != segMagic {
		return 0, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if version != segVersion {
		return 0, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, version)
	}
	return firstSeq, nil
}

// appendFrame appends one framed record to dst.
func appendFrame(dst []byte, seq uint64, unixNano int64, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	crcAt := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0) // crc placeholder
	body := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(unixNano))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[body:], castagnoli)
	binary.BigEndian.PutUint32(dst[crcAt:], crc)
	return dst
}

// frameInfo describes one decoded frame within a segment buffer.
type frameInfo struct {
	seq      uint64
	unixNano int64
	payload  []byte // aliases the scan buffer
	raw      []byte // the whole frame; aliases the scan buffer
	size     int    // len(raw)
}

// errTorn reports a frame that is structurally incomplete or fails its
// CRC — the expected state of a segment tail after a crash.
var errTorn = errors.New("store: torn frame")

// parseFrame decodes the frame at the start of b.
func parseFrame(b []byte) (frameInfo, error) {
	if len(b) < frameOverhead {
		return frameInfo{}, errTorn
	}
	n := binary.BigEndian.Uint32(b)
	if n > maxPayload {
		return frameInfo{}, errTorn
	}
	total := frameOverhead + int(n)
	if len(b) < total {
		return frameInfo{}, errTorn
	}
	wantCRC := binary.BigEndian.Uint32(b[4:])
	if crc32.Checksum(b[8:total], castagnoli) != wantCRC {
		return frameInfo{}, errTorn
	}
	return frameInfo{
		seq:      binary.BigEndian.Uint64(b[8:]),
		unixNano: int64(binary.BigEndian.Uint64(b[16:])),
		payload:  b[frameOverhead:total],
		raw:      b[:total],
		size:     total,
	}, nil
}
