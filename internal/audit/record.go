// Package audit provides the accountability plane of the middleware
// (Section 8.3 and Challenge 6): a tamper-evident, append-only log of every
// attempted data flow — permitted or denied — plus the provenance graph
// derived from it (data items, transformation processes and agents, per
// Fig. 11), with the ancestry and taint queries needed to "demonstrate
// compliance and aid accountability".
package audit

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"sync"
	"time"

	"lciot/internal/ifc"
)

// EventKind classifies audit records.
type EventKind int

// Event kinds. FlowDenied records are as important as FlowAllowed ones: the
// paper stresses recording "all attempted and permitted flows".
const (
	FlowAllowed EventKind = iota + 1
	FlowDenied
	ContextChange
	PrivilegeGrant
	Reconfiguration
	GateCrossing
	BreakGlass
	// ObligationScheduled records a data-management obligation (retention
	// deadline, erasure trigger) being registered for a datum.
	ObligationScheduled
	// ObligationExecuted records an obligation carried out (retention
	// expiry swept, erasure propagated).
	ObligationExecuted
	// ObligationRefused records an obligation the middleware could not
	// carry out (and why) — refusals are evidence too.
	ObligationRefused
	// Redaction records a tombstone being written over an earlier record:
	// the evidence that erasure reached the audit trail itself.
	Redaction
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case FlowAllowed:
		return "flow-allowed"
	case FlowDenied:
		return "flow-denied"
	case ContextChange:
		return "context-change"
	case PrivilegeGrant:
		return "privilege-grant"
	case Reconfiguration:
		return "reconfiguration"
	case GateCrossing:
		return "gate-crossing"
	case BreakGlass:
		return "break-glass"
	case ObligationScheduled:
		return "obligation-scheduled"
	case ObligationExecuted:
		return "obligation-executed"
	case ObligationRefused:
		return "obligation-refused"
	case Redaction:
		return "redaction"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Layer identifies which enforcement level produced a record (Fig. 9/10:
// kernel vs messaging substrate vs middleware policy plane).
type Layer int

// Enforcement layers.
const (
	LayerKernel Layer = iota + 1
	LayerMessaging
	LayerPolicy
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case LayerKernel:
		return "kernel"
	case LayerMessaging:
		return "messaging"
	case LayerPolicy:
		return "policy"
	default:
		return fmt.Sprintf("Layer(%d)", int(l))
	}
}

// A Record is one audit event. Records are immutable once appended.
type Record struct {
	// Seq is the record's position in its log, assigned on append.
	Seq uint64 `json:"seq"`
	// Time is when the event occurred.
	Time time.Time `json:"time"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Layer is the enforcement level that produced the record.
	Layer Layer `json:"layer"`
	// Domain is the administrative domain of the enforcement point.
	Domain string `json:"domain,omitempty"`
	// Src and Dst identify the entities on either side of a flow; for
	// context changes Src is the entity and Dst is empty.
	Src ifc.EntityID `json:"src,omitempty"`
	Dst ifc.EntityID `json:"dst,omitempty"`
	// SrcCtx/DstCtx are the security contexts at enforcement time.
	SrcCtx ifc.SecurityContext `json:"src_ctx,omitempty"`
	DstCtx ifc.SecurityContext `json:"dst_ctx,omitempty"`
	// DataID identifies the datum that flowed, when known; provenance
	// derivation keys on it.
	DataID string `json:"data_id,omitempty"`
	// Agent is the principal on whose behalf the event happened.
	Agent ifc.PrincipalID `json:"agent,omitempty"`
	// Note carries a human-readable explanation (e.g. the denial reason).
	Note string `json:"note,omitempty"`
	// TraceID is the hex form of the flow-tracing context the message
	// carried (empty when the flow was unsampled). It correlates this
	// enforcement record with the performance spans in internal/telemetry:
	// the same 128-bit ID appears at every node a traced message crossed.
	TraceID string `json:"trace_id,omitempty"`

	// Redacted marks a chain-preserving tombstone: the record's payload
	// fields were zeroed by an erasure obligation while Seq, PrevHash and
	// the *original* Hash survive, so the chain still links through it.
	// A tombstone's content hash is unverifiable by construction — that is
	// the point — so verifiers check linkage only. Redacted is not part of
	// the hash preimage (the original hash predates the redaction).
	Redacted bool `json:"redacted,omitempty"`

	// PrevHash chains this record to its predecessor; Hash covers the whole
	// record including PrevHash, making any retrospective edit detectable.
	PrevHash [32]byte `json:"prev_hash"`
	Hash     [32]byte `json:"hash"`
}

// Redact returns the chain-preserving tombstone of r: Seq, Time, Kind,
// Layer, Domain, PrevHash and the original Hash survive so the chain still
// verifies end to end, while every payload field — entities, contexts,
// data id, agent, note — is zeroed. note records why ("retention expired",
// "erasure request"), which is obligation evidence, not payload.
func (r Record) Redact(note string) Record {
	return Record{
		Seq: r.Seq, Time: r.Time, Kind: r.Kind, Layer: r.Layer, Domain: r.Domain,
		Note: note, Redacted: true, PrevHash: r.PrevHash, Hash: r.Hash,
	}
}

// ValidTombstone reports whether a redacted record is structurally a
// tombstone: every payload field zeroed, exactly as Redact produces.
// Verifiers enforce this — a tombstone's content hash is unverifiable by
// design, so the Redacted flag may only ever *destroy* content; a record
// carrying payload under the flag is a forgery attempt, not an erasure.
func ValidTombstone(r *Record) bool {
	return r.Redacted && r.Src == "" && r.Dst == "" && r.DataID == "" && r.Agent == "" &&
		r.TraceID == "" && r.SrcCtx.IsPublic() && r.DstCtx.IsPublic()
}

// hashScratch bundles a reusable SHA-256 state with a reusable encoding
// buffer: audit ingest is a hot path, and a fresh hash.Hash plus per-field
// byte conversions would allocate on every record.
type hashScratch struct {
	h   hash.Hash
	buf []byte
	sum [sha256.Size]byte // Sum target: a local array would escape through the interface
}

var hasherPool = sync.Pool{
	New: func() any { return &hashScratch{h: sha256.New(), buf: make([]byte, 0, 512)} },
}

// computeHash derives the record's chained hash. Labels are interned with
// their canonical strings (package ifc), so the context fields hash without
// re-rendering; the whole computation is allocation-free in steady state.
//
// The preimage is the binary wire form (codec.go) minus its version byte,
// flags byte and stored hash — wire[1:23] ‖ wire[24:len-32] — built by
// the same appenders as AppendRecordBinary, which is what lets
// VerifyRecordBinary prove a stored record from its bytes.
//
// The hash preimage layout is an internal detail of this package version:
// chains and exported segments verify against the code that produced them,
// and the layout may change between versions (it is not a cross-version
// archival format). Offloaded segments that must stay verifiable across
// upgrades should pin the verifier version alongside the segment.
func computeHash(r *Record) [32]byte {
	s := hasherPool.Get().(*hashScratch)
	b := appendPreimageBody(appendPreimageHead(s.buf[:0], r), r)
	s.h.Reset()
	s.h.Write(b)
	out := [32]byte(s.h.Sum(s.sum[:0]))
	s.buf = b
	hasherPool.Put(s)
	return out
}

// MarshalJSON gives records a stable wire form (hashes hex-encoded by the
// default array encoding is fine; we keep the default).
func (r Record) String() string {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Sprintf("audit.Record{seq=%d, unprintable: %v}", r.Seq, err)
	}
	return string(b)
}
