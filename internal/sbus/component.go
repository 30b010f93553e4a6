package sbus

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"lciot/internal/ifc"
	"lciot/internal/msg"
)

// Direction tells whether an endpoint emits or receives messages.
type Direction int

// Endpoint directions.
const (
	Source Direction = iota + 1
	Sink
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Source:
		return "source"
	case Sink:
		return "sink"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Errors reported by components and buses.
var (
	ErrNoComponent  = errors.New("sbus: unknown component")
	ErrNoEndpoint   = errors.New("sbus: unknown endpoint")
	ErrDirection    = errors.New("sbus: endpoint direction mismatch")
	ErrSchema       = errors.New("sbus: schema mismatch")
	ErrQuarantined  = errors.New("sbus: component quarantined")
	ErrNoChannel    = errors.New("sbus: no such channel")
	ErrDupComponent = errors.New("sbus: component name in use")
	ErrClearance    = errors.New("sbus: message-layer clearance insufficient")
)

// A Delivery carries metadata alongside a received message.
type Delivery struct {
	// From is the fully-qualified source endpoint ("bus:component.endpoint").
	From string
	// Endpoint is the local sink endpoint that received the message.
	Endpoint string
	// Quenched lists attribute names removed by source quenching.
	Quenched []string
}

// A Handler consumes messages delivered to a component's sinks. Handlers
// run on the delivering goroutine and must not block. The message is
// read-only: it may be the publisher's own, shared with every other sink
// the publish reached, on any shard, and a copy is made only when
// quenching removes an attribute. A handler never modifies it: one that
// edits it, or keeps it to edit later, clones it first (msg.Message.Clone).
// Reading it after the handler returns, or re-publishing it unchanged, is
// fine, because the publisher does not modify it after Publish either.
type Handler func(m *msg.Message, d Delivery)

// An EndpointSpec declares one endpoint at registration time.
type EndpointSpec struct {
	Name   string
	Dir    Direction
	Schema *msg.Schema
}

// A Component is one "thing" attached to a bus: an application process, a
// sensor driver, a gateway proxy. It carries an IFC entity (OS-level
// security context and privileges), a principal identity for access
// control, and a message-layer clearance label (Fig. 10).
type Component struct {
	name string
	bus  *Bus
	// shard is the index of the component's home shard — a pure function
	// of the name and the bus's shard count, cached at registration so the
	// publish hot path never hashes.
	shard     int
	entity    *ifc.Entity
	principal ifc.PrincipalID
	handler   Handler
	// endpoints is immutable after registration and so read without locks
	// on the publish/delivery hot path.
	endpoints map[string]EndpointSpec

	mu          sync.RWMutex
	clearance   ifc.Label
	quarantined atomic.Bool

	// delivered counts messages delivered to this component (local and
	// link ingress), unconditionally — one uncontended atomic add per
	// delivery — so skew reports can name the hottest components without
	// telemetry armed.
	delivered atomic.Uint64
}

// Delivered returns the component's lifetime delivery count.
func (c *Component) Delivered() uint64 { return c.delivered.Load() }

// Name returns the component's bus-local name.
func (c *Component) Name() string { return c.name }

// Principal returns the identity the component acts as.
func (c *Component) Principal() ifc.PrincipalID { return c.principal }

// Entity exposes the component's IFC entity.
func (c *Component) Entity() *ifc.Entity { return c.entity }

// Context returns the component's current IFC security context.
func (c *Component) Context() ifc.SecurityContext { return c.entity.Context() }

// Clearance returns the component's message-layer clearance label.
func (c *Component) Clearance() ifc.Label {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.clearance
}

// SetClearance replaces the message-layer clearance label.
func (c *Component) SetClearance(l ifc.Label) {
	c.mu.Lock()
	c.clearance = l
	c.mu.Unlock()
}

// Quarantined reports whether the component has been isolated.
func (c *Component) Quarantined() bool {
	return c.quarantined.Load()
}

// setQuarantined flips isolation (bus-internal; reached via control plane).
func (c *Component) setQuarantined(q bool) {
	c.quarantined.Store(q)
}

// Endpoint returns the endpoint spec.
func (c *Component) Endpoint(name string) (EndpointSpec, bool) {
	ep, ok := c.endpoints[name]
	return ep, ok
}

// Endpoints lists endpoint names, sorted.
func (c *Component) Endpoints() []string {
	out := make([]string, 0, len(c.endpoints))
	for n := range c.endpoints {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetContext transitions the component's IFC context (subject to its
// privileges) and then asks the bus to re-evaluate every channel touching
// this component, tearing down those the new context makes illegal — the
// "monitored throughout the connection's lifetime" behaviour of
// Section 8.2.2. Re-evaluation reads only this component's home shard, so
// concurrent context changes on components homed elsewhere proceed
// without any shared lock.
func (c *Component) SetContext(to ifc.SecurityContext) error {
	if err := c.entity.SetContext(to); err != nil {
		return err
	}
	c.bus.reevaluate(c.name)
	return nil
}

// Publish emits a message from one of the component's source endpoints to
// every connected sink, enforcing IFC and message-layer policy per
// delivery. It returns the number of successful deliveries. On a
// single-shard bus every delivery is synchronous and the count is exact.
// On a multi-shard bus a sink homed on another shard counts as delivered
// when its shard accepts the handoff — quarantine, IFC and clearance are
// then enforced, and any denial audited, asynchronously on that shard's
// dispatcher — so the count is an upper bound on actual deliveries and
// must not be used as synchronous enforcement feedback; watch the audit
// log for denials instead.
//
// The message must be treated as immutable once handed to Publish: sinks
// receive it itself (see Handler), a cross-shard handoff retains it after
// Publish returns, and mutating it afterwards races with the delivering
// dispatchers and handlers.
func (c *Component) Publish(endpoint string, m *msg.Message) (int, error) {
	return c.bus.publish(c, endpoint, m)
}
