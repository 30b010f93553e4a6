// Package lciot is policy-driven middleware for a legally-compliant
// Internet of Things: a Go implementation of the architecture proposed by
// Singh et al., "Big ideas paper: Policy-driven middleware for a
// legally-compliant Internet of Things" (Middleware 2016).
//
// The library provides, end to end:
//
//   - Decentralised Information Flow Control: tags, secrecy/integrity
//     labels, privileges, declassifier/endorser gates (Section 6 of the
//     paper).
//   - A reconfigurable, strongly-typed messaging substrate with IFC
//     enforcement at channel establishment and per message, message-layer
//     tags with attribute quenching, and third-party reconfiguration
//     (Sections 8.1, 8.2).
//   - A policy language and engine: ECA rules over events, context and
//     timers, with priority-based conflict resolution and break-glass
//     overrides that revert automatically (Sections 3.1, 5).
//   - Complex event detection, a context model, simulated devices,
//     gateways for constrained subsystems, and cloud hosts with an
//     IFC-enforcing kernel.
//   - Tamper-evident audit of every attempted flow and provenance graphs
//     derived from the logs (Section 8.3).
//   - Federation between administrative domains over TCP or an in-memory
//     simulated network, gated by remote attestation.
//
// The top-level entry point is Domain (see NewDomain). A minimal system:
//
//	d, err := lciot.NewDomain("hospital", lciot.Options{})
//	// register components on d.Bus(), load policy with d.LoadPolicy(...)
//
// See examples/quickstart for a complete runnable program, and DESIGN.md
// for the layer map, the substitution table and the mapping from the
// paper's figures to this implementation.
package lciot

import (
	"lciot/internal/attest"
	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/core"
	"lciot/internal/ctxmodel"
	"lciot/internal/device"
	"lciot/internal/fault"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/names"
	"lciot/internal/policy"
	"lciot/internal/sbus"
	"lciot/internal/store"
	"lciot/internal/telemetry"
	"lciot/internal/transport"
)

// --- IFC model (paper Section 6) ---

type (
	// Tag names one security concern, e.g. "medical" or "eu/personal-data".
	Tag = ifc.Tag
	// Label is an immutable set of tags.
	Label = ifc.Label
	// SecurityContext pairs a secrecy and an integrity label.
	SecurityContext = ifc.SecurityContext
	// Privileges are the four tag sets authorising label changes.
	Privileges = ifc.Privileges
	// Gate bridges security context domains (declassifier/endorser).
	Gate = ifc.Gate
	// PrincipalID identifies a principal (person, organisation, service).
	PrincipalID = ifc.PrincipalID
)

// IFC constructors and checks re-exported from the model.
var (
	// NewLabel builds a validated label.
	NewLabel = ifc.NewLabel
	// MustLabel builds a label from constant tags, panicking on error.
	MustLabel = ifc.MustLabel
	// NewContext builds a validated security context.
	NewContext = ifc.NewContext
	// MustContext builds a context from constant tags.
	MustContext = ifc.MustContext
	// CheckFlow evaluates the flow rule with a full explanation.
	CheckFlow = ifc.CheckFlow
	// EnforceFlow returns an error when the flow rule denies.
	EnforceFlow = ifc.EnforceFlow
	// MergeContexts computes the least upper bound of contexts.
	MergeContexts = ifc.MergeContexts
	// OwnerPrivileges returns full privileges over the given tags.
	OwnerPrivileges = ifc.OwnerPrivileges
	// NewEntity creates an active labelled entity (gate operators, ad hoc
	// processes); bus components get their entities automatically.
	NewEntity = ifc.NewEntity
	// ErrFlowDenied matches IFC denials via errors.Is.
	ErrFlowDenied = ifc.ErrFlowDenied
)

// --- Middleware core ---

type (
	// Domain is one administrative domain: bus, policy engine, context
	// store, audit log, devices, TPM.
	Domain = core.Domain
	// Options configures a Domain.
	Options = core.Options
	// HealthState is one rung of the ladder: ok, degraded or failed.
	HealthState = core.HealthState
)

// Degradation-ladder rungs.
const (
	HealthOK       = core.HealthOK
	HealthDegraded = core.HealthDegraded
	HealthFailed   = core.HealthFailed
)

var (
	// NewDomain assembles a domain.
	NewDomain = core.NewDomain
	// PolicyEnginePrincipal is the identity of the domain policy engine.
	PolicyEnginePrincipal = core.PolicyEnginePrincipal
)

// --- Messaging substrate (paper Sections 8.1, 8.2) ---

type (
	// Component is one "thing" on a bus.
	Component = sbus.Component
	// EndpointSpec declares a typed endpoint.
	EndpointSpec = sbus.EndpointSpec
	// Handler consumes delivered messages. A delivered message is shared
	// and read-only: clone it before editing it.
	Handler = sbus.Handler
	// Delivery carries delivery metadata.
	Delivery = sbus.Delivery
	// LinkConfig tunes cross-bus link behaviour (queue bound, backpressure
	// timeout, reconnect backoff and budget).
	LinkConfig = sbus.LinkConfig
	// LinkStatus is a point-in-time snapshot of one cross-bus link.
	LinkStatus = sbus.LinkStatus
	// Message is a typed message instance.
	Message = msg.Message
	// Schema declares a message type.
	Schema = msg.Schema
	// Field declares one message attribute.
	Field = msg.Field
)

// Endpoint directions.
const (
	Source = sbus.Source
	Sink   = sbus.Sink
)

// Message field types.
const (
	TString = msg.TString
	TFloat  = msg.TFloat
	TInt    = msg.TInt
	TBool   = msg.TBool
	TBytes  = msg.TBytes
)

// Messaging constructors.
var (
	// NewSchema builds a validated message schema.
	NewSchema = msg.NewSchema
	// MustSchema builds a schema from constant fields.
	MustSchema = msg.MustSchema
	// NewMessage builds an empty message of a type.
	NewMessage = msg.New
	// Str, Float, Int, Bool and Bytes build message values.
	Str   = msg.Str
	Float = msg.Float
	Int   = msg.Int
	Bool  = msg.Bool
	Bytes = msg.Bytes
)

// --- Policy (paper Sections 3.1, 5) ---

var (
	// ParsePolicy compiles policy source.
	ParsePolicy = policy.Parse
)

// --- Events, context, devices ---

type (
	// Event is one observation fed to detection.
	Event = cep.Event
	// Pattern inspects the event stream.
	Pattern = cep.Pattern
	// ThresholdPattern fires on N matching events within a window.
	ThresholdPattern = cep.Threshold
	// AbsencePattern fires when a stream goes silent.
	AbsencePattern = cep.Absence
	// VitalsSensor is a deterministic synthetic medical sensor.
	VitalsSensor = device.VitalsSensor
	// Actuator accepts validated commands.
	Actuator = device.Actuator
)

// Context value and device constructors.
var (
	// CtxBool builds a boolean context value.
	CtxBool = ctxmodel.Bool
	// NewVitalsSensor builds a deterministic synthetic vitals sensor.
	NewVitalsSensor = device.NewVitalsSensor
	// NewEnvironmentSensor builds a deterministic environmental sensor.
	NewEnvironmentSensor = device.NewEnvironmentSensor
	// NewActuator builds a command-validated actuator.
	NewActuator = device.NewActuator
)

// --- Audit & provenance (paper Section 8.3) ---

type (
	// AuditStoreOptions configures a durable store (segment size, retention).
	AuditStoreOptions = store.Options
)

var (
	// BuildProvenance derives a provenance graph from audit records.
	BuildProvenance = audit.BuildGraph
	// Report builds a compliance report over a log.
	Report = audit.Report
	// OpenAuditStore opens and recovers a durable audit store directory
	// (Domains with Options.DataDir do this automatically).
	OpenAuditStore = store.OpenAudit
)

// --- Fault injection (chaos drills, robustness tests) ---

var (
	// SetFaults arms failpoints from a spec string — the same grammar as
	// lciotd's -faults flag, e.g. "store.wal.write=once(enospc)".
	SetFaults = fault.Set
	// FaultSnapshot lists every registered failpoint and its state.
	FaultSnapshot = fault.Snapshot
)

// --- Obligations: retention, erasure, residency, purpose limitation ---

var (
	// RetentionReport proves (or refutes) retention compliance for a tag.
	RetentionReport = audit.RetentionReport
	// ErrResidency matches link-egress residency denials via errors.Is.
	ErrResidency = sbus.ErrResidency
)

// --- Access control, naming, attestation, transport ---

type (
	// TagRecord is the authoritative description of a tag.
	TagRecord = names.TagRecord
	// AttestationPolicy states what a verifier requires of a platform.
	AttestationPolicy = attest.Policy
)

var (
	// NewTagRoot creates an empty root zone.
	NewTagRoot = names.NewRoot
	// NewTagResolver builds a resolver over a zone tree.
	NewTagResolver = names.NewResolver
	// NewMemNetwork builds the in-memory simulated network.
	NewMemNetwork = transport.NewMemNetwork
)

// --- Telemetry: metrics and end-to-end flow tracing ---

type (
	// Metric is one series in a registry snapshot.
	Metric = telemetry.Metric
)

var (
	// EnableTelemetry turns recording instruments on process-wide.
	// Telemetry is off by default: a disabled instrument costs one atomic
	// load, so libraries embed instruments unconditionally and daemons
	// opt in at boot (lciotd does).
	EnableTelemetry = telemetry.Enable
	// TelemetrySnapshot reads every series in the default registry.
	TelemetrySnapshot = telemetry.Snapshot
	// SetTraceSampling sets head-based flow-trace sampling: every n-th
	// publish starts a trace and arms its stage clock, which feeds the
	// stage_*_ns histograms; 0 disables (error spans still record).
	SetTraceSampling = telemetry.SetTraceSampling
	// TraceSampling reports the current head-sampling rate.
	TraceSampling = telemetry.TraceSampling
	// FlowTraces groups the buffered span events by trace, oldest first.
	FlowTraces = telemetry.Traces
)

// TCP is the production transport over real sockets.
var TCP transport.Network = transport.TCPNetwork{}

// ErrLinkDown is returned when a cross-bus operation has no live link and
// no prospect of one (peer never linked, retry budget exhausted, or link
// closed).
var ErrLinkDown = sbus.ErrLinkDown
