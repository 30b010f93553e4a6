package sbus

import (
	"errors"
	"sync"
	"testing"

	"lciot/internal/ac"
	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/msg"
)

// vitalsSchema is the home-monitoring message type used across tests.
func vitalsSchema() *msg.Schema {
	return msg.MustSchema("vitals", ifc.EmptyLabel,
		msg.Field{Name: "patient", Type: msg.TString, Required: true},
		msg.Field{Name: "heart-rate", Type: msg.TFloat, Required: true},
	)
}

// openACL grants everything to everyone; individual tests tighten it.
func openACL() *ac.ACL {
	var a ac.ACL
	a.DefineRole(ac.Role{Name: "any", Grants: []ac.Permission{{Action: "*", Resource: "**"}}})
	for _, p := range []ifc.PrincipalID{"hospital", "policy-engine", "mallory"} {
		_ = a.Assign(ac.Assignment{Principal: p, Role: "any", Args: map[string]string{}})
	}
	return &a
}

// restrictedACL authorises only the hospital and policy-engine principals.
func restrictedACL() *ac.ACL {
	var a ac.ACL
	a.DefineRole(ac.Role{Name: "admin", Grants: []ac.Permission{{Action: "*", Resource: "**"}}})
	_ = a.Assign(ac.Assignment{Principal: "hospital", Role: "admin", Args: map[string]string{}})
	_ = a.Assign(ac.Assignment{Principal: "policy-engine", Role: "admin", Args: map[string]string{}})
	return &a
}

// sinkRecorder collects deliveries.
type sinkRecorder struct {
	mu         sync.Mutex
	messages   []*msg.Message
	deliveries []Delivery
}

func (r *sinkRecorder) handler() Handler {
	return func(m *msg.Message, d Delivery) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.messages = append(r.messages, m)
		r.deliveries = append(r.deliveries, d)
	}
}

func (r *sinkRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.messages)
}

func (r *sinkRecorder) last() (*msg.Message, Delivery) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.messages) == 0 {
		return nil, Delivery{}
	}
	return r.messages[len(r.messages)-1], r.deliveries[len(r.deliveries)-1]
}

// annCtx / zebCtx / annAnalyserCtx are the Fig. 4 security contexts.
func annCtx() ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"hosp-dev", "consent"})
}

func zebCtx() ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", "zeb"}, []ifc.Tag{"zeb-dev", "consent"})
}

func vitalsMessage(patient string, hr float64) *msg.Message {
	m := msg.New("vitals").Set("patient", msg.Str(patient)).Set("heart-rate", msg.Float(hr))
	m.DataID = "reading-" + patient
	return m
}

// newHomeBus builds a bus with Ann's device, Zeb's device and Ann's
// analyser registered.
func newHomeBus(t *testing.T) (*Bus, *sinkRecorder) {
	t.Helper()
	bus := NewShardedBus("hospital-bus", 1, openACL(), nil, nil)
	rec := &sinkRecorder{}
	if _, err := bus.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("zeb-device", "hospital", zebCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("ann-analyser", "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	return bus, rec
}

func TestRegisterValidation(t *testing.T) {
	bus := NewShardedBus("b", 1, nil, nil, nil)
	if _, err := bus.Register("", "p", ifc.SecurityContext{}, nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := bus.Register("has.dot", "p", ifc.SecurityContext{}, nil); err == nil {
		t.Fatal("dotted name accepted")
	}
	if _, err := bus.Register("c", "p", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "", Schema: vitalsSchema()}); err == nil {
		t.Fatal("unnamed endpoint accepted")
	}
	if _, err := bus.Register("c", "p", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "e", Dir: Source, Schema: nil}); err == nil {
		t.Fatal("schemaless endpoint accepted")
	}
	if _, err := bus.Register("c", "p", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "e", Dir: Source, Schema: vitalsSchema()},
		EndpointSpec{Name: "e", Dir: Sink, Schema: vitalsSchema()}); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
	if _, err := bus.Register("ok", "p", ifc.SecurityContext{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("ok", "p", ifc.SecurityContext{}, nil); !errors.Is(err, ErrDupComponent) {
		t.Fatalf("duplicate component = %v", err)
	}
	if _, err := bus.Component("ghost"); !errors.Is(err, ErrNoComponent) {
		t.Fatalf("unknown component = %v", err)
	}
}

// TestFig4IllegalFlowPrevented is experiment E4: Ann's data reaches Ann's
// analyser; Zeb's device cannot even connect, failing both halves of the
// IFC rule, and the denial is audited with the reason.
func TestFig4IllegalFlowPrevented(t *testing.T) {
	bus, rec := newHomeBus(t)

	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatalf("Ann's connect failed: %v", err)
	}
	err := bus.Connect("hospital", "zeb-device.out", "ann-analyser.in")
	if !errors.Is(err, ifc.ErrFlowDenied) {
		t.Fatalf("Zeb's connect = %v, want ErrFlowDenied", err)
	}

	annDev, _ := bus.Component("ann-device")
	if n, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 1 {
		t.Fatalf("Publish = %d, %v", n, err)
	}
	if rec.count() != 1 {
		t.Fatalf("deliveries = %d", rec.count())
	}
	m, d := rec.last()
	if v, _ := m.Get("patient"); v.Str != "ann" {
		t.Fatalf("delivered message = %v", m)
	}
	if d.From != "hospital-bus:ann-device.out" {
		t.Fatalf("delivery From = %q", d.From)
	}

	// The denial must appear in the audit log with the missing tags named.
	denials := bus.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowDenied })
	if len(denials) != 1 {
		t.Fatalf("denial records = %d", len(denials))
	}
}

func TestConnectErrors(t *testing.T) {
	bus, _ := newHomeBus(t)
	tests := []struct {
		name     string
		src, dst string
		wantErr  error
	}{
		{"unknown-src-component", "ghost.out", "ann-analyser.in", ErrNoComponent},
		{"unknown-src-endpoint", "ann-device.nope", "ann-analyser.in", ErrNoEndpoint},
		{"wrong-src-direction", "ann-analyser.in", "ann-analyser.in", ErrDirection},
		{"unknown-dst", "ann-device.out", "ghost.in", ErrNoComponent},
		{"wrong-dst-direction", "ann-device.out", "zeb-device.out", ErrDirection},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := bus.Connect("hospital", tt.src, tt.dst); !errors.Is(err, tt.wantErr) {
				t.Fatalf("Connect = %v, want %v", err, tt.wantErr)
			}
		})
	}
	if err := bus.Connect("hospital", "bad-address", "x.in"); err == nil {
		t.Fatal("malformed address accepted")
	}
}

func TestConnectSchemaMismatch(t *testing.T) {
	bus, _ := newHomeBus(t)
	other := msg.MustSchema("other", ifc.EmptyLabel, msg.Field{Name: "x", Type: msg.TInt})
	if _, err := bus.Register("odd", "hospital", annCtx(), nil,
		EndpointSpec{Name: "in", Dir: Sink, Schema: other}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Connect("hospital", "ann-device.out", "odd.in"); !errors.Is(err, ErrSchema) {
		t.Fatalf("schema mismatch = %v", err)
	}
}

func TestConnectDeniedByAC(t *testing.T) {
	bus := NewShardedBus("b", 1, restrictedACL(), nil, nil)
	rec := &sinkRecorder{}
	if _, err := bus.Register("src", "mallory", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("dst", "hospital", ifc.SecurityContext{}, rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Connect("mallory", "src.out", "dst.in"); !errors.Is(err, ac.ErrDenied) {
		t.Fatalf("unauthorised connect = %v", err)
	}
	// The AC denial is audited too.
	denials := bus.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowDenied })
	if len(denials) != 1 {
		t.Fatalf("denials = %d", len(denials))
	}
	if err := bus.Connect("hospital", "src.out", "dst.in"); err != nil {
		t.Fatalf("authorised connect failed: %v", err)
	}
}

func TestPublishValidation(t *testing.T) {
	bus, _ := newHomeBus(t)
	annDev, _ := bus.Component("ann-device")

	if _, err := annDev.Publish("nope", vitalsMessage("ann", 1)); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("unknown endpoint = %v", err)
	}
	bad := msg.New("vitals").Set("patient", msg.Str("ann")) // missing heart-rate
	if _, err := annDev.Publish("out", bad); !errors.Is(err, msg.ErrMissing) {
		t.Fatalf("invalid message = %v", err)
	}
	analyser, _ := bus.Component("ann-analyser")
	if _, err := analyser.Publish("in", vitalsMessage("ann", 1)); !errors.Is(err, ErrDirection) {
		t.Fatalf("publish on sink = %v", err)
	}
	// Publishing with no channels delivers to nobody but succeeds.
	if n, err := annDev.Publish("out", vitalsMessage("ann", 1)); err != nil || n != 0 {
		t.Fatalf("publish without channels = %d, %v", n, err)
	}
}

// TestContextChangeTearsDownChannel verifies Section 8.2.2's "monitored
// throughout the connection's lifetime, where an entity changing its
// security context triggers re-evaluation".
func TestContextChangeTearsDownChannel(t *testing.T) {
	bus, rec := newHomeBus(t)
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	annDev, _ := bus.Component("ann-device")
	if n, _ := annDev.Publish("out", vitalsMessage("ann", 72)); n != 1 {
		t.Fatal("initial delivery failed")
	}

	// The analyser declassifies itself out of Ann's domain (needs privilege).
	analyser, _ := bus.Component("ann-analyser")
	if err := analyser.Entity().GrantPrivileges(ifc.Privileges{
		RemoveSecrecy:   ifc.MustLabel("ann", "medical"),
		RemoveIntegrity: ifc.MustLabel("hosp-dev", "consent"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := analyser.SetContext(ifc.SecurityContext{}); err != nil {
		t.Fatal(err)
	}

	// The channel must be gone: labelled data cannot reach a public sink.
	if len(bus.Channels()) != 0 {
		t.Fatalf("channels = %v", bus.Channels())
	}
	if n, _ := annDev.Publish("out", vitalsMessage("ann", 80)); n != 0 {
		t.Fatal("delivery after teardown")
	}
	if rec.count() != 1 {
		t.Fatalf("deliveries = %d, want 1", rec.count())
	}
	// Teardown is audited.
	teardowns := bus.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.Reconfiguration && r.Note == "channel torn down: context change made flow illegal"
	})
	if len(teardowns) != 1 {
		t.Fatalf("teardown records = %d", len(teardowns))
	}
}

// TestTeardownAuditNamesEstablishedEnds pairs each channel's establishment
// record with its teardown record by Src and Dst: Disconnect and
// re-evaluation teardown must name the same entities Connect did (the
// components' entities locally, the remote sink's address across buses),
// so an auditor can match a channel's lifetime in the log.
func TestTeardownAuditNamesEstablishedEnds(t *testing.T) {
	bus, _ := newHomeBus(t)
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if err := bus.Disconnect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	est, torn := checkTeardownPairs(t, bus.Log(), "channel established", "channel torn down")
	if est.Src != "hospital-bus:ann-device" || est.Dst != "hospital-bus:ann-analyser" {
		t.Fatalf("establishment names %s -> %s", est.Src, est.Dst)
	}

	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	analyser, _ := bus.Component("ann-analyser")
	if err := analyser.Entity().GrantPrivileges(ifc.Privileges{
		RemoveSecrecy:   ifc.MustLabel("ann", "medical"),
		RemoveIntegrity: ifc.MustLabel("hosp-dev", "consent"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := analyser.SetContext(ifc.SecurityContext{}); err != nil {
		t.Fatal(err)
	}
	_, torn2 := checkTeardownPairs(t, bus.Log(), "channel established",
		"channel torn down: context change made flow illegal")
	if torn2.Src != torn.Src || torn2.Dst != torn.Dst {
		t.Fatalf("re-evaluation teardown names %s -> %s, Disconnect named %s -> %s",
			torn2.Src, torn2.Dst, torn.Src, torn.Dst)
	}

	home, _, _ := linkedBuses(t)
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if err := home.Disconnect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	est, _ = checkTeardownPairs(t, home.Log(), "cross-bus channel established", "channel torn down")
	if est.Src != "home-bus:ann-device" || est.Dst != "cloud-bus:ann-analyser.in" {
		t.Fatalf("cross-bus establishment names %s -> %s", est.Src, est.Dst)
	}
}

// checkTeardownPairs finds the last record noted established and the last
// noted torn in the log and fails unless both name the same Src and Dst.
func checkTeardownPairs(t *testing.T, log *audit.Log, established, torn string) (est, td audit.Record) {
	t.Helper()
	last := func(note string) audit.Record {
		rs := log.Select(func(r audit.Record) bool { return r.Kind == audit.Reconfiguration && r.Note == note })
		if len(rs) == 0 {
			t.Fatalf("no %q record", note)
		}
		return rs[len(rs)-1]
	}
	est, td = last(established), last(torn)
	if est.Src != td.Src || est.Dst != td.Dst {
		t.Fatalf("%q names %s -> %s, %q names %s -> %s", established, est.Src, est.Dst, torn, td.Src, td.Dst)
	}
	return est, td
}

func TestContextChangeKeepsLegalChannel(t *testing.T) {
	bus, rec := newHomeBus(t)
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	// The analyser becomes *more* constrained: still legal.
	analyser, _ := bus.Component("ann-analyser")
	if err := analyser.Entity().GrantPrivileges(ifc.Privileges{
		AddSecrecy: ifc.MustLabel("archive"),
	}); err != nil {
		t.Fatal(err)
	}
	newCtx := analyser.Context()
	newCtx.Secrecy = newCtx.Secrecy.With("archive")
	if err := analyser.SetContext(newCtx); err != nil {
		t.Fatal(err)
	}
	if len(bus.Channels()) != 1 {
		t.Fatal("legal channel torn down")
	}
	annDev, _ := bus.Component("ann-device")
	if n, _ := annDev.Publish("out", vitalsMessage("ann", 72)); n != 1 {
		t.Fatal("delivery failed after legal context change")
	}
	if rec.count() != 1 {
		t.Fatal("missing delivery")
	}
}

func TestDisconnect(t *testing.T) {
	bus, _ := newHomeBus(t)
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if err := bus.Disconnect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if len(bus.Channels()) != 0 {
		t.Fatal("channel survived disconnect")
	}
	if err := bus.Disconnect("hospital", "ann-device.out", "ann-analyser.in"); !errors.Is(err, ErrNoChannel) {
		t.Fatalf("double disconnect = %v", err)
	}
}

func TestQuarantine(t *testing.T) {
	bus, rec := newHomeBus(t)
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if err := bus.Quarantine("policy-engine", "ann-device", true); err != nil {
		t.Fatal(err)
	}
	annDev, _ := bus.Component("ann-device")
	if _, err := annDev.Publish("out", vitalsMessage("ann", 72)); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined publish = %v", err)
	}
	// A quarantined component cannot be connected either.
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("connect from quarantined = %v", err)
	}
	// Release restores service.
	if err := bus.Quarantine("policy-engine", "ann-device", false); err != nil {
		t.Fatal(err)
	}
	if n, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 1 {
		t.Fatalf("post-release publish = %d, %v", n, err)
	}
	if rec.count() != 1 {
		t.Fatal("missing post-release delivery")
	}
}

func TestQuarantinedSinkRefusesDelivery(t *testing.T) {
	bus, rec := newHomeBus(t)
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if err := bus.Quarantine("policy-engine", "ann-analyser", true); err != nil {
		t.Fatal(err)
	}
	annDev, _ := bus.Component("ann-device")
	if n, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 0 {
		t.Fatalf("publish to quarantined sink = %d, %v", n, err)
	}
	if rec.count() != 0 {
		t.Fatal("quarantined sink received message")
	}
}

// TestFig8ThirdPartyReconfiguration is experiment E8: a policy engine
// issues a control message that creates a new interaction between two
// components, executed as though they had initiated it themselves.
func TestFig8ThirdPartyReconfiguration(t *testing.T) {
	bus, rec := newHomeBus(t)

	// The policy engine connects A to B via the control plane.
	op := ControlOp{Op: "connect", By: "policy-engine", Src: "ann-device.out", Dst: "ann-analyser.in"}
	if err := bus.Apply(op); err != nil {
		t.Fatal(err)
	}
	annDev, _ := bus.Component("ann-device")
	if n, _ := annDev.Publish("out", vitalsMessage("ann", 72)); n != 1 || rec.count() != 1 {
		t.Fatal("resulting interaction did not happen")
	}

	// An unauthorised principal cannot reconfigure.
	busR := NewShardedBus("b2", 1, restrictedACL(), nil, nil)
	if _, err := busR.Register("s", "hospital", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := busR.Register("d", "hospital", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	err := busR.Apply(ControlOp{Op: "connect", By: "mallory", Src: "s.out", Dst: "d.in"})
	if !errors.Is(err, ac.ErrDenied) {
		t.Fatalf("mallory's reconfiguration = %v", err)
	}
}

func TestControlSetContextAndGrant(t *testing.T) {
	bus, _ := newHomeBus(t)

	// Grant the sanitiser-style privileges, then relabel via control plane.
	if err := bus.Apply(ControlOp{
		Op: "grant", By: "policy-engine", Component: "zeb-device",
		AddSecrecy: ifc.MustLabel("extra"),
	}); err != nil {
		t.Fatal(err)
	}
	zeb, _ := bus.Component("zeb-device")
	newCtx := zeb.Context()
	newCtx.Secrecy = newCtx.Secrecy.With("extra")
	if err := bus.Apply(ControlOp{
		Op: "setcontext", By: "policy-engine", Component: "zeb-device",
		Secrecy: newCtx.Secrecy, Integrity: newCtx.Integrity,
	}); err != nil {
		t.Fatal(err)
	}
	if !zeb.Context().Secrecy.Has("extra") {
		t.Fatal("context not changed")
	}
	// Without privileges the transition fails even for authorised parties.
	if err := bus.Apply(ControlOp{
		Op: "setcontext", By: "policy-engine", Component: "ann-device",
	}); !errors.Is(err, ifc.ErrPrivilege) {
		t.Fatalf("unprivileged relabel = %v", err)
	}
	// Unknown op.
	if err := bus.Apply(ControlOp{Op: "explode", By: "policy-engine"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Audit captured the grant and the context change.
	grants := bus.Log().Select(func(r audit.Record) bool { return r.Kind == audit.PrivilegeGrant })
	changes := bus.Log().Select(func(r audit.Record) bool { return r.Kind == audit.ContextChange })
	if len(grants) != 1 || len(changes) != 1 {
		t.Fatalf("audit: %d grants, %d changes", len(grants), len(changes))
	}
}

// TestFig10MessageLayerTags is experiment E10: message-layer tags above the
// OS-level context, enforced by the substrate with source quenching.
func TestFig10MessageLayerTags(t *testing.T) {
	// The person schema's "name" attribute carries tag C; the type carries
	// {A,B}.
	person := msg.MustSchema("person", ifc.MustLabel("A", "B"),
		msg.Field{Name: "name", Type: msg.TString, Secrecy: ifc.MustLabel("C")},
		msg.Field{Name: "country", Type: msg.TString},
	)
	bus := NewShardedBus("b", 1, openACL(), nil, nil)
	if _, err := bus.Register("app", "hospital", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: person}); err != nil {
		t.Fatal(err)
	}
	full := &sinkRecorder{}
	partial := &sinkRecorder{}
	none := &sinkRecorder{}
	for _, c := range []struct {
		name      string
		rec       *sinkRecorder
		clearance ifc.Label
	}{
		{"analyser-full", full, ifc.MustLabel("A", "B", "C")},
		{"analyser-partial", partial, ifc.MustLabel("A", "B")},
		{"analyser-none", none, ifc.MustLabel("A")},
	} {
		comp, err := bus.Register(c.name, "hospital", ifc.SecurityContext{}, c.rec.handler(),
			EndpointSpec{Name: "in", Dir: Sink, Schema: person})
		if err != nil {
			t.Fatal(err)
		}
		comp.SetClearance(c.clearance)
		if err := bus.Connect("hospital", "app.out", c.name+".in"); err != nil {
			t.Fatal(err)
		}
	}

	app, _ := bus.Component("app")
	m := msg.New("person").Set("name", msg.Str("ann")).Set("country", msg.Str("uk"))
	n, err := app.Publish("out", m)
	if err != nil {
		t.Fatal(err)
	}
	// Delivered to full and partial; denied entirely to none (type tags).
	if n != 2 {
		t.Fatalf("delivered = %d, want 2", n)
	}
	// The cleared receiver shares the publisher's message; the partially
	// cleared one gets a copy without the tagged attribute, and the
	// publisher's message keeps it.
	fm, fd := full.last()
	if fm != m || len(fd.Quenched) != 0 {
		t.Fatalf("fully cleared receiver: shared %v, quenched %v", fm == m, fd.Quenched)
	}
	pm, pd := partial.last()
	if _, ok := pm.Get("name"); ok {
		t.Fatal("partially cleared receiver saw the sensitive attribute")
	}
	if v, ok := pm.Get("country"); !ok || v.Str != "uk" {
		t.Fatal("partially cleared receiver lost an untagged attribute")
	}
	if len(pd.Quenched) != 1 || pd.Quenched[0] != "name" {
		t.Fatalf("quenched = %v", pd.Quenched)
	}
	if v, ok := m.Get("name"); !ok || v.Str != "ann" {
		t.Fatal("quenching removed the attribute from the publisher's message")
	}
	// The audit trail names the quenched attribute.
	partialComp, _ := bus.Component("analyser-partial")
	notes := bus.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.FlowAllowed && r.Dst == partialComp.Entity().ID()
	})
	if len(notes) != 1 || notes[0].Note != "delivered with quenched attributes: name" {
		t.Fatalf("partial delivery records = %+v", notes)
	}
	if none.count() != 0 {
		t.Fatal("uncleared receiver got the message")
	}
	// The type-level denial is audited.
	denials := bus.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowDenied })
	if len(denials) != 1 {
		t.Fatalf("denials = %d", len(denials))
	}
}

func TestDirectionString(t *testing.T) {
	if Source.String() != "source" || Sink.String() != "sink" {
		t.Fatal("direction strings")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Fatal("unknown direction")
	}
}

func TestComponentsAndEndpointsListing(t *testing.T) {
	bus, _ := newHomeBus(t)
	comps := bus.Components()
	if len(comps) != 3 || comps[0] != "ann-analyser" {
		t.Fatalf("components = %v", comps)
	}
	annDev, _ := bus.Component("ann-device")
	if eps := annDev.Endpoints(); len(eps) != 1 || eps[0] != "out" {
		t.Fatalf("endpoints = %v", eps)
	}
	if annDev.Principal() != "hospital" {
		t.Fatalf("principal = %q", annDev.Principal())
	}
}
