package sbus

import (
	"encoding/binary"
	"errors"
	"fmt"

	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
	"lciot/internal/wire"
)

// This file is the link protocol: the binary wire form of cross-bus frames.
//
// One transport frame carries a batch of link frames, so the per-peer
// writer goroutine (link.go) can coalesce a burst of messages into a single
// syscall/packet. Layout (all integers big-endian):
//
//	batch   := u8 magic 'L' | u8 version (5) | u16 count | count × frame
//	frame   := u8 kind | u64 id | u8 flags |
//	           str16 bus | str16 src | str16 dst |
//	           str16 srcSecrecy | str16 srcIntegrity |   (canonical label form)
//	           str16 srcJurisdiction | str16 srcPurpose |
//	           str16 schema | str16 agent | str16 err |
//	           bytes32 payload | trailer
//	trailer := u64 traceHi | u64 traceLo | u8 hop | u64 egressNs
//	str16   := u16 len | bytes      bytes32 := u32 len | bytes
//
// The jurisdiction and purpose fields carry the obligation facets of the
// source context; on hello frames the jurisdiction field carries the
// *bus's* declared jurisdiction, which the peer's egress path uses to
// enforce residency before data leaves a region.
//
// Labels travel as their canonical String form (a pointer read on interned
// labels) and are resolved on decode by ifc.ParseLabelBytes, which finds a
// canonical label in the intern table without allocating — the same idiom
// as audit's binary record codec. Every field is read through wire.Reader.
//
// Every frame — hellos and results included — ends with the same 25-byte
// trailer: the flow-trace ID and hop count (zero when the flow is
// unsampled), then the sender's egress wall clock (UnixNano; zero when the
// message carries no stage clock). Ingress observes now−egress into the
// per-peer stage_link_hop_ns histogram and resumes the stage clock on the
// decoded message. The trailer has one size on every frame, so hop and
// timestamp sit at a fixed offset from each frame's end.
//
// Version 5 is the only version. The first batch on a connection must
// contain exactly one hello frame; the magic and version bytes come first,
// so an acceptor refuses a peer speaking any other version before parsing
// anything else, and a v1 peer's JSON ('{' = 0x7B) is detected explicitly
// and refused with a clear error rather than a decode failure.

const (
	// linkMagic is the first byte of every batch ('L' for link).
	linkMagic = 0x4C
	// linkVersion is the one link protocol version this bus speaks.
	linkVersion = 5
	// batchHeaderLen is magic + version + count.
	batchHeaderLen = 4
	// trailerLen is the per-frame suffix: 16-byte trace ID, 1 hop byte and
	// the 8-byte egress UnixNano.
	trailerLen = 16 + 1 + 8
	// minFrameLen is the smallest encodable frame: kind, id, flags, ten
	// empty str16 fields, an empty payload and the trailer. DecodeBatch
	// bounds a header's frame count by it before allocating.
	minFrameLen = 1 + 8 + 1 + 10*2 + 4 + trailerLen
)

// Frame kinds. The wire carries the byte; LinkFrame carries the string
// (what tests and switch statements read).
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
	// ErrWire is the sentinel for malformed wire data.
	ErrWire = errors.New("sbus: malformed link frame")
	// ErrProtocol is returned when a peer speaks any other link protocol
	// version (including legacy v1 JSON).
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

	// Trace is the flow-tracing context carried in the frame trailer (zero
	// when unsampled).
	Trace telemetry.TraceContext

	// EgressNs is the sender's egress wall-clock (UnixNano) carried in the
	// frame trailer; 0 when the message carries no stage clock.
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

// kindString is the inverse of kindByte; an unknown byte fails r.
func kindString(r *wire.Reader, k byte) string {
	switch k {
	case kindHello:
		return "hello"
	case kindConnect:
		return "connect"
	case kindResult:
		return "result"
	case kindMessage:
		return "message"
	case kindDisconnect:
		return "disconnect"
	}
	r.Fail("unknown kind byte %d", k)
	return ""
}

// AppendBatchHeader appends a batch header for count frames.
func AppendBatchHeader(dst []byte, count int) []byte {
	dst = append(dst, linkMagic, linkVersion)
	return binary.BigEndian.AppendUint16(dst, uint16(count))
}

// appendTrailer appends the fixed per-frame trailer.
func appendTrailer(dst []byte, tc telemetry.TraceContext, egressNs uint64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.ID.Hi)
	dst = binary.BigEndian.AppendUint64(dst, tc.ID.Lo)
	dst = append(dst, tc.Hop)
	return binary.BigEndian.AppendUint64(dst, egressNs)
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
		if dst, err = wire.AppendStr16(dst, s, ErrWire); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// AppendLinkFrame appends the binary form of f, trailer included, to dst
// and returns the extended slice. Encoding into a caller-owned buffer keeps
// the steady state allocation-free.
func AppendLinkFrame(dst []byte, f *LinkFrame) ([]byte, error) {
	dst, err := appendFramePrefix(dst, f)
	if err != nil {
		return dst, err
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return appendTrailer(dst, f.Trace, f.EgressNs), nil
}

// appendMessageFrame is AppendLinkFrame with the payload encoded straight
// from the message: the frame fields and msg.AppendBinary land in one
// buffer in one pass, with the payload length backfilled — no intermediate
// payload slice on the per-message egress path.
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
	return appendTrailer(dst, f.Trace, f.EgressNs), nil
}

// decodeFrame parses one frame at the cursor into f.
func decodeFrame(r *wire.Reader, f *LinkFrame) {
	f.Kind = kindString(r, r.Byte())
	f.ID = r.U64()
	f.OK = r.Byte()&flagOK != 0
	f.Bus = r.Str16()
	f.Src = r.Str16()
	f.Dst = r.Str16()
	f.SrcSecrecy = readLabel(r, "src secrecy")
	f.SrcIntegrity = readLabel(r, "src integrity")
	f.SrcJurisdiction = readLabel(r, "src jurisdiction")
	f.SrcPurpose = readLabel(r, "src purpose")
	f.Schema = r.Str16()
	f.Agent = ifc.PrincipalID(r.Str16())
	f.Err = r.Str16()
	if p := r.Bytes32(); len(p) > 0 {
		// The payload escapes the read buffer (handlers may retain the
		// decoded message's bytes), so copy it out.
		f.Payload = make([]byte, len(p))
		copy(f.Payload, p)
	}
	if t := r.Next(trailerLen); t != nil {
		f.Trace.ID.Hi = binary.BigEndian.Uint64(t)
		f.Trace.ID.Lo = binary.BigEndian.Uint64(t[8:])
		f.Trace.Hop = t[16]
		f.EgressNs = binary.BigEndian.Uint64(t[17:])
	}
}

// readLabel reads one str16 label field; what names it in a refusal.
func readLabel(r *wire.Reader, what string) ifc.Label {
	b := r.Bytes16()
	if r.Err() != nil {
		return ifc.Label{}
	}
	l, err := ifc.ParseLabelBytes(b)
	if err != nil {
		r.Fail("%s: %v", what, err)
	}
	return l
}

// DecodeBatch parses one received transport frame into its link frames.
// A peer speaking any other protocol version — including legacy v1 JSON —
// is reported as ErrProtocol with an actionable message; anything else
// malformed is ErrWire.
func DecodeBatch(data []byte) ([]LinkFrame, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrWire)
	}
	if data[0] != linkMagic {
		if data[0] == '{' {
			return nil, fmt.Errorf("%w: peer speaks legacy JSON link protocol v1; this bus speaks only v%d",
				ErrProtocol, linkVersion)
		}
		return nil, fmt.Errorf("%w: bad magic byte 0x%02x", ErrWire, data[0])
	}
	if len(data) < batchHeaderLen {
		return nil, fmt.Errorf("%w: short batch header", ErrWire)
	}
	if v := data[1]; v != linkVersion {
		return nil, fmt.Errorf("%w: peer speaks link protocol v%d, this bus speaks only v%d",
			ErrProtocol, v, linkVersion)
	}
	r := wire.NewReader(data, ErrWire)
	r.Next(2) // magic and version, checked above
	// The count comes from the peer: bound it by what the bytes can hold
	// before sizing the frame slice on it.
	count := r.Count(int(r.U16()), minFrameLen, "frames")
	if err := r.Err(); err != nil {
		return nil, err
	}
	frames := make([]LinkFrame, count)
	for i := range frames {
		decodeFrame(&r, &frames[i])
	}
	r.End()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return frames, nil
}

// encodeSingle packs one frame as a one-element batch (handshake helpers
// and tests; the data path batches through the writer goroutine).
func encodeSingle(f *LinkFrame) ([]byte, error) {
	buf := AppendBatchHeader(nil, 1)
	return AppendLinkFrame(buf, f)
}
