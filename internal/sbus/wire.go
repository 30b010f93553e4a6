package sbus

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
)

// This file is link protocol v2: the binary wire form of cross-bus frames.
//
// Protocol v1 shipped one JSON object per transport frame. v2 replaces it
// with a compact binary encoding in the msg.AppendBinary append style plus
// *batching*: one transport frame carries a batch of link frames, so the
// per-peer writer goroutine (link.go) can coalesce a burst of messages into
// a single syscall/packet. Layout (all integers big-endian):
//
//	batch  := u8 magic 'L' | u8 version (3) | u16 count | count × frame
//	frame  := u8 kind | u64 id | u8 flags |
//	          str16 bus | str16 src | str16 dst |
//	          str16 srcSecrecy | str16 srcIntegrity |   (canonical label form)
//	          str16 srcJurisdiction | str16 srcPurpose |
//	          str16 schema | str16 agent | str16 err |
//	          bytes32 payload
//	str16  := u16 len | bytes      bytes32 := u32 len | bytes
//
// v3 extends v2 with the obligation facets (jurisdiction and purpose) of
// the source context on every frame; on hello frames the jurisdiction
// field carries the *bus's* declared jurisdiction, which the peer's
// egress path uses to enforce residency before data leaves a region.
//
// Labels travel as their canonical String form (a pointer read on interned
// labels) and are re-interned by ifc.ParseLabel on decode — the same idiom
// as audit's binary record codec.
//
// v4 extends v3 with flow tracing: every frame in a version-4 batch ends
// with a fixed 17-byte trace trailer (16-byte trace ID, big-endian Hi then
// Lo, plus a hop count byte; all zero when the flow is unsampled). The
// trailer is a suffix so the two layouts share every other byte: the link
// writer encodes queued frames in the newest form and simply truncates the
// trailer when the peer negotiated v3, dropping traces cleanly without
// re-encoding.
//
// v5 extends the v4 trailer with stage attribution: 8 more bytes carrying
// the sender's egress wall-clock (big-endian UnixNano; 0 when the message
// carries no stage clock). Ingress observes now−egress into the per-peer
// stage_link_hop_ns histogram and resumes the stage clock on the decoded
// message. The trailer remains a pure suffix — trace bytes first, egress
// bytes last — so the writer serves a v4 peer by truncating the 8 egress
// bytes and a v3 peer by truncating the whole 25-byte trailer.
//
// Version negotiation: the first batch on a connection must contain
// exactly one hello frame. Hello batches are always sent in v3 form — the
// newest layout both sides are guaranteed to parse — and each side
// advertises the highest version it speaks in the hello frame's ID field
// (a v3 build leaves ID zero, which reads as an advertisement of v3).
// Both sides then speak min(local, advertised) for the rest of the
// session, so v5↔v4↔v3 pairs interoperate with no frames rejected. The
// magic and version bytes come first so an acceptor can reject a truly
// incompatible peer before parsing anything else; a v1 peer's JSON
// ('{' = 0x7B) is detected explicitly and refused with a clear error
// rather than a decode failure.

const (
	// linkMagic is the first byte of every v2+ batch ('L' for link).
	linkMagic = 0x4C
	// linkVersion is the newest protocol version this bus speaks;
	// linkVersionMin is the oldest it still accepts and emits (for v3
	// peers, negotiated at hello time).
	linkVersion    = 5
	linkVersionMin = 3
	// batchHeaderLen is magic + version + count.
	batchHeaderLen = 4
	// traceTrailerLen is the per-frame trace suffix introduced in v4:
	// 16-byte trace ID + 1 hop byte.
	traceTrailerLen = 17
	// egressTrailerLen is the stage-attribution suffix v5 adds after the
	// trace bytes: the sender's egress UnixNano.
	egressTrailerLen = 8
	// trailerLenV5 is the full v5 per-frame suffix.
	trailerLenV5 = traceTrailerLen + egressTrailerLen
)

// Frame kinds. The wire carries the byte; LinkFrame carries the string
// (stable across v1/v2, and what tests and switch statements read).
const (
	kindHello      = 1
	kindConnect    = 2
	kindResult     = 3
	kindMessage    = 4
	kindDisconnect = 5
)

// frame flag bits.
const flagOK = 1 << 0

// Errors reported by the wire codec.
var (
	// ErrWire is the sentinel for malformed v2 wire data.
	ErrWire = errors.New("sbus: malformed link frame")
	// ErrProtocol is returned when a peer speaks an incompatible link
	// protocol version (including legacy v1 JSON).
	ErrProtocol = errors.New("sbus: link protocol mismatch")
)

// A LinkFrame is one unit of the cross-bus wire protocol.
type LinkFrame struct {
	Kind string // hello, connect, result, message, disconnect
	ID   uint64
	Bus  string

	Src string // fully qualified "bus:comp.ep"
	Dst string // receiver-local "comp.ep"

	SrcSecrecy   ifc.Label
	SrcIntegrity ifc.Label
	// SrcJurisdiction and SrcPurpose are the obligation facets of the
	// source context; on hello frames SrcJurisdiction is the sending bus's
	// declared jurisdiction.
	SrcJurisdiction ifc.Label
	SrcPurpose      ifc.Label

	Schema  string
	Payload []byte // msg.AppendBinary

	OK  bool
	Err string

	Agent ifc.PrincipalID

	// Trace is the flow-tracing context carried in the v4 frame trailer
	// (zero when unsampled or when the peer negotiated v3).
	Trace telemetry.TraceContext

	// EgressNs is the sender's egress wall-clock (UnixNano) carried in the
	// v5 trailer; 0 when the message carries no stage clock or the peer
	// negotiated v3/v4.
	EgressNs uint64
}

// kindByte maps the frame kind string to its wire byte.
func kindByte(kind string) (byte, error) {
	switch kind {
	case "hello":
		return kindHello, nil
	case "connect":
		return kindConnect, nil
	case "result":
		return kindResult, nil
	case "message":
		return kindMessage, nil
	case "disconnect":
		return kindDisconnect, nil
	}
	return 0, fmt.Errorf("%w: unknown kind %q", ErrWire, kind)
}

// kindString is the inverse of kindByte.
func kindString(k byte) (string, error) {
	switch k {
	case kindHello:
		return "hello", nil
	case kindConnect:
		return "connect", nil
	case kindResult:
		return "result", nil
	case kindMessage:
		return "message", nil
	case kindDisconnect:
		return "disconnect", nil
	}
	return "", fmt.Errorf("%w: unknown kind byte %d", ErrWire, k)
}

// AppendBatchHeader appends a v3 batch header for count frames (frames
// without trace trailers — the handshake and single-frame helpers). The
// link writer stamps v4 headers itself once the peer has negotiated v4.
func AppendBatchHeader(dst []byte, count int) []byte {
	return appendBatchHeaderV(dst, linkVersionMin, count)
}

// appendBatchHeaderV appends a batch header carrying an explicit version.
func appendBatchHeaderV(dst []byte, version byte, count int) []byte {
	dst = append(dst, linkMagic, version)
	return binary.BigEndian.AppendUint16(dst, uint16(count))
}

// appendTraceTrailer appends the fixed v4 trace suffix.
func appendTraceTrailer(dst []byte, tc telemetry.TraceContext) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.ID.Hi)
	dst = binary.BigEndian.AppendUint64(dst, tc.ID.Lo)
	return append(dst, tc.Hop)
}

// appendFramePrefix appends every frame field up to (but excluding) the
// payload.
func appendFramePrefix(dst []byte, f *LinkFrame) ([]byte, error) {
	k, err := kindByte(f.Kind)
	if err != nil {
		return dst, err
	}
	dst = append(dst, k)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	var flags byte
	if f.OK {
		flags |= flagOK
	}
	dst = append(dst, flags)
	for _, s := range [...]string{
		f.Bus, f.Src, f.Dst,
		f.SrcSecrecy.String(), f.SrcIntegrity.String(),
		f.SrcJurisdiction.String(), f.SrcPurpose.String(),
		f.Schema, string(f.Agent), f.Err,
	} {
		if len(s) > 0xFFFF {
			return dst, fmt.Errorf("%w: field of %d bytes exceeds 64 KiB", ErrWire, len(s))
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
		dst = append(dst, s...)
	}
	return dst, nil
}

// AppendLinkFrame appends the v3 binary form of f to dst and returns the
// extended slice. Encoding into a caller-owned buffer keeps the steady
// state allocation-free; the writer goroutine reuses one batch buffer for
// its whole life.
func AppendLinkFrame(dst []byte, f *LinkFrame) ([]byte, error) {
	dst, err := appendFramePrefix(dst, f)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return dst, nil
}

// appendLinkFrameV4 is AppendLinkFrame plus the v4 trace trailer (replay
// re-encoding for peers that negotiated exactly v4).
func appendLinkFrameV4(dst []byte, f *LinkFrame) ([]byte, error) {
	dst, err := AppendLinkFrame(dst, f)
	if err != nil {
		return dst, err
	}
	return appendTraceTrailer(dst, f.Trace), nil
}

// appendLinkFrameV5 is AppendLinkFrame plus the full v5 trailer (trace
// bytes, then the egress timestamp). Every frame handed to a link's send
// queue is encoded in this form; the writer truncates the fixed-size
// suffixes when the peer negotiated v4 or v3.
func appendLinkFrameV5(dst []byte, f *LinkFrame) ([]byte, error) {
	dst, err := AppendLinkFrame(dst, f)
	if err != nil {
		return dst, err
	}
	dst = appendTraceTrailer(dst, f.Trace)
	return binary.BigEndian.AppendUint64(dst, f.EgressNs), nil
}

// appendMessageFrame is AppendLinkFrame with the payload encoded straight
// from the message: the frame fields and msg.AppendBinary land in one
// buffer in one pass, with the payload length backfilled — no intermediate
// payload slice on the per-message egress path.
// The frame is produced in v5 form (trace trailer from the message's own
// context, egress timestamp from f.EgressNs) ready for the writer's
// per-version emit.
func appendMessageFrame(dst []byte, f *LinkFrame, m *msg.Message) ([]byte, error) {
	dst, err := appendFramePrefix(dst, f)
	if err != nil {
		return dst, err
	}
	lenAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err = msg.AppendBinary(dst, m)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	dst = appendTraceTrailer(dst, m.Trace)
	return binary.BigEndian.AppendUint64(dst, f.EgressNs), nil
}

// wireDecoder is a bounds-checked cursor over one received batch; ver is
// the batch header version, which decides whether frames carry the v4
// trace trailer.
type wireDecoder struct {
	buf []byte
	off int
	ver byte
}

func (d *wireDecoder) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("%w: truncated at offset %d", ErrWire, d.off)
	}
	return nil
}

func (d *wireDecoder) byte() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *wireDecoder) uint16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v, nil
}

func (d *wireDecoder) uint64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *wireDecoder) string16() (string, error) {
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

// decodeFrame parses one frame at the cursor.
func (d *wireDecoder) decodeFrame() (LinkFrame, error) {
	var f LinkFrame
	k, err := d.byte()
	if err != nil {
		return f, err
	}
	if f.Kind, err = kindString(k); err != nil {
		return f, err
	}
	if f.ID, err = d.uint64(); err != nil {
		return f, err
	}
	flags, err := d.byte()
	if err != nil {
		return f, err
	}
	f.OK = flags&flagOK != 0
	if f.Bus, err = d.string16(); err != nil {
		return f, err
	}
	if f.Src, err = d.string16(); err != nil {
		return f, err
	}
	if f.Dst, err = d.string16(); err != nil {
		return f, err
	}
	srcS, err := d.string16()
	if err != nil {
		return f, err
	}
	if f.SrcSecrecy, err = ifc.ParseLabel(srcS); err != nil {
		return f, fmt.Errorf("%w: src secrecy: %v", ErrWire, err)
	}
	srcI, err := d.string16()
	if err != nil {
		return f, err
	}
	if f.SrcIntegrity, err = ifc.ParseLabel(srcI); err != nil {
		return f, fmt.Errorf("%w: src integrity: %v", ErrWire, err)
	}
	srcJ, err := d.string16()
	if err != nil {
		return f, err
	}
	if f.SrcJurisdiction, err = ifc.ParseLabel(srcJ); err != nil {
		return f, fmt.Errorf("%w: src jurisdiction: %v", ErrWire, err)
	}
	srcP, err := d.string16()
	if err != nil {
		return f, err
	}
	if f.SrcPurpose, err = ifc.ParseLabel(srcP); err != nil {
		return f, fmt.Errorf("%w: src purpose: %v", ErrWire, err)
	}
	if f.Schema, err = d.string16(); err != nil {
		return f, err
	}
	agent, err := d.string16()
	if err != nil {
		return f, err
	}
	f.Agent = ifc.PrincipalID(agent)
	if f.Err, err = d.string16(); err != nil {
		return f, err
	}
	if err := d.need(4); err != nil {
		return f, err
	}
	n := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	if err := d.need(int(n)); err != nil {
		return f, err
	}
	if n > 0 {
		// The payload escapes the read buffer (handlers may retain the
		// decoded message's bytes), so copy it out.
		f.Payload = make([]byte, n)
		copy(f.Payload, d.buf[d.off:])
	}
	d.off += int(n)
	if d.ver >= 4 {
		if err := d.need(traceTrailerLen); err != nil {
			return f, err
		}
		f.Trace.ID.Hi = binary.BigEndian.Uint64(d.buf[d.off:])
		f.Trace.ID.Lo = binary.BigEndian.Uint64(d.buf[d.off+8:])
		f.Trace.Hop = d.buf[d.off+16]
		d.off += traceTrailerLen
	}
	if d.ver >= 5 {
		if err := d.need(egressTrailerLen); err != nil {
			return f, err
		}
		f.EgressNs = binary.BigEndian.Uint64(d.buf[d.off:])
		d.off += egressTrailerLen
	}
	return f, nil
}

// DecodeBatch parses one received transport frame into its link frames.
// Version mismatches — including a legacy v1 JSON peer — are reported as
// ErrProtocol with an actionable message; anything else malformed is
// ErrWire.
func DecodeBatch(data []byte) ([]LinkFrame, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrWire)
	}
	if data[0] != linkMagic {
		if data[0] == '{' {
			return nil, fmt.Errorf("%w: peer speaks legacy JSON link protocol v1; this bus accepts v%d-v%d",
				ErrProtocol, linkVersionMin, linkVersion)
		}
		return nil, fmt.Errorf("%w: bad magic byte 0x%02x", ErrWire, data[0])
	}
	if len(data) < batchHeaderLen {
		return nil, fmt.Errorf("%w: short batch header", ErrWire)
	}
	if v := data[1]; v < linkVersionMin || v > linkVersion {
		return nil, fmt.Errorf("%w: peer speaks link protocol v%d, this bus accepts v%d-v%d",
			ErrProtocol, v, linkVersionMin, linkVersion)
	}
	count := int(binary.BigEndian.Uint16(data[2:]))
	d := &wireDecoder{buf: data, off: batchHeaderLen, ver: data[1]}
	frames := make([]LinkFrame, 0, count)
	for i := 0; i < count; i++ {
		f, err := d.decodeFrame()
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrWire, len(data)-d.off)
	}
	return frames, nil
}

// encodeSingle packs one frame as a one-element batch (handshake helpers
// and tests; the data path batches through the writer goroutine).
func encodeSingle(f *LinkFrame) ([]byte, error) {
	buf := AppendBatchHeader(nil, 1)
	return AppendLinkFrame(buf, f)
}
