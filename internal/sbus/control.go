package sbus

import (
	"fmt"

	"lciot/internal/audit"
	"lciot/internal/ifc"
)

// This file is the control plane: the third-party reconfiguration of
// Fig. 8. Policy engines (or administrators) issue control operations that
// the bus executes on components "as though the application had initiated
// them; though they occur independently from the application logic of the
// component being reconfigured". Every operation is subject to the bus's
// access-control regime, "to ensure that reconfigurations are only actioned
// when received from trusted third parties", and every operation is
// audited.

// SetComponentContext changes a component's IFC security context on behalf
// of a third party. The transition is authorised against the *component's*
// privileges — exactly as if the component had called SetContext itself —
// after the third party passes the AC check.
func (b *Bus) SetComponentContext(by ifc.PrincipalID, component string, to ifc.SecurityContext) error {
	if err := b.acl.Authorize(by, "setcontext", "component/"+component, b.store.Snapshot()); err != nil {
		return err
	}
	c, err := b.Component(component)
	if err != nil {
		return err
	}
	from := c.Context()
	if err := c.SetContext(to); err != nil {
		return err
	}
	b.log.AppendAsync(audit.Record{
		Kind: audit.ContextChange, Layer: audit.LayerMessaging, Domain: b.name,
		Src: c.entity.ID(), SrcCtx: from, DstCtx: to, Agent: by,
		Note: "context changed by third-party reconfiguration",
	})
	return nil
}

// GrantPrivileges passes IFC privileges to a component on behalf of a third
// party (Section 6: "privileges are not inherited and have to be passed
// explicitly").
func (b *Bus) GrantPrivileges(by ifc.PrincipalID, component string, p ifc.Privileges) error {
	if err := b.acl.Authorize(by, "grant", "component/"+component, b.store.Snapshot()); err != nil {
		return err
	}
	c, err := b.Component(component)
	if err != nil {
		return err
	}
	if err := c.entity.GrantPrivileges(p); err != nil {
		return err
	}
	// GrantPrivileges advanced the entity's privilege generation and the
	// process-wide flow-cache generation: every cached decision derived
	// from the old privilege sets is now stale and will be re-derived.
	b.log.AppendAsync(audit.Record{
		Kind: audit.PrivilegeGrant, Layer: audit.LayerMessaging, Domain: b.name,
		Src: c.entity.ID(), Agent: by,
		Note: "privileges granted: " + p.String(),
	})
	return nil
}

// InstallGate installs a declassifier/endorser gate into the bus's gate
// registry on behalf of a third party. Installation invalidates every
// cached flow-routability decision (the registry's generation advances), so
// a previously denied route becomes available immediately.
func (b *Bus) InstallGate(by ifc.PrincipalID, g *ifc.Gate) error {
	if g == nil || g.Name == "" {
		return fmt.Errorf("sbus: gate needs a name")
	}
	if err := b.acl.Authorize(by, "installgate", "gate/"+g.Name, b.store.Snapshot()); err != nil {
		return err
	}
	b.gates.Install(g)
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Agent: by, Note: fmt.Sprintf("gate %q installed (%s): %s -> %s",
			g.Name, g.Kind(), g.Input, g.Output),
	})
	return nil
}

// RemoveGate removes an installed gate on behalf of a third party.
func (b *Bus) RemoveGate(by ifc.PrincipalID, name string) error {
	if err := b.acl.Authorize(by, "removegate", "gate/"+name, b.store.Snapshot()); err != nil {
		return err
	}
	if !b.gates.Remove(name) {
		return fmt.Errorf("sbus: no gate %q installed", name)
	}
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Agent: by, Note: fmt.Sprintf("gate %q removed", name),
	})
	return nil
}

// SetComponentClearance changes a component's message-layer clearance
// (Fig. 10's additional tags) on behalf of a third party.
func (b *Bus) SetComponentClearance(by ifc.PrincipalID, component string, clearance ifc.Label) error {
	if err := b.acl.Authorize(by, "setclearance", "component/"+component, b.store.Snapshot()); err != nil {
		return err
	}
	c, err := b.Component(component)
	if err != nil {
		return err
	}
	c.SetClearance(clearance)
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: c.entity.ID(), Agent: by,
		Note: "message-layer clearance set to " + clearance.String(),
	})
	return nil
}

// Quarantine isolates (or releases) a component: all its publications and
// inbound deliveries are refused while quarantined (Section 5.2:
// "preventing a rogue 'thing' from causing more damage").
func (b *Bus) Quarantine(by ifc.PrincipalID, component string, isolated bool) error {
	if err := b.acl.Authorize(by, "quarantine", "component/"+component, b.store.Snapshot()); err != nil {
		return err
	}
	c, err := b.Component(component)
	if err != nil {
		return err
	}
	c.setQuarantined(isolated)
	note := "component quarantined"
	if !isolated {
		note = "component released from quarantine"
	}
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: c.entity.ID(), Agent: by, Note: note,
	})
	return nil
}

// A ControlOp is a serialisable control-plane instruction, so that policy
// engines can issue reconfiguration through the same message plane they
// govern (Fig. 8's control message).
type ControlOp struct {
	Op string `json:"op"` // connect, disconnect, setcontext, grant, setclearance, quarantine, release
	// By is the issuing principal; the bus authorises Op against it.
	By ifc.PrincipalID `json:"by"`
	// Src/Dst are endpoint addresses for connect/disconnect.
	Src string `json:"src,omitempty"`
	Dst string `json:"dst,omitempty"`
	// Component targets component-scoped operations.
	Component string `json:"component,omitempty"`
	// Secrecy/Integrity carry the new context for setcontext, or the
	// clearance (Secrecy only) for setclearance.
	Secrecy   ifc.Label `json:"secrecy,omitempty"`
	Integrity ifc.Label `json:"integrity,omitempty"`
	// Privileges for grant.
	AddSecrecy      ifc.Label `json:"priv_add_s,omitempty"`
	RemoveSecrecy   ifc.Label `json:"priv_remove_s,omitempty"`
	AddIntegrity    ifc.Label `json:"priv_add_i,omitempty"`
	RemoveIntegrity ifc.Label `json:"priv_remove_i,omitempty"`
}

// Apply executes a control operation.
func (b *Bus) Apply(op ControlOp) error {
	switch op.Op {
	case "connect":
		return b.Connect(op.By, op.Src, op.Dst)
	case "disconnect":
		return b.Disconnect(op.By, op.Src, op.Dst)
	case "setcontext":
		return b.SetComponentContext(op.By, op.Component,
			ifc.SecurityContext{Secrecy: op.Secrecy, Integrity: op.Integrity})
	case "grant":
		return b.GrantPrivileges(op.By, op.Component, ifc.Privileges{
			AddSecrecy:      op.AddSecrecy,
			RemoveSecrecy:   op.RemoveSecrecy,
			AddIntegrity:    op.AddIntegrity,
			RemoveIntegrity: op.RemoveIntegrity,
		})
	case "setclearance":
		return b.SetComponentClearance(op.By, op.Component, op.Secrecy)
	case "quarantine":
		return b.Quarantine(op.By, op.Component, true)
	case "release":
		return b.Quarantine(op.By, op.Component, false)
	default:
		return fmt.Errorf("sbus: unknown control op %q", op.Op)
	}
}
