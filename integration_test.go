package lciot_test

// Integration tests spanning the whole stack: devices → gateways → domains
// → federation over real TCP, with policy reacting to live conditions and
// audit collected across tiers. These exercise the compositions that the
// per-package unit tests cannot.

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"lciot"
	"lciot/internal/attest"
	"lciot/internal/audit"
	"lciot/internal/core"
	"lciot/internal/ctxmodel"
	"lciot/internal/device"
	"lciot/internal/gateway"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/transport"
)

func itVitals() *msg.Schema {
	return msg.MustSchema("vitals", ifc.EmptyLabel,
		msg.Field{Name: "patient", Type: msg.TString, Required: true},
		msg.Field{Name: "heart-rate", Type: msg.TFloat, Required: true},
	)
}

func itAnnCtx() ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil)
}

type itRecorder struct {
	mu   sync.Mutex
	msgs []*msg.Message
}

func (r *itRecorder) handler() sbus.Handler {
	return func(m *msg.Message, _ sbus.Delivery) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.msgs = append(r.msgs, m)
	}
}

func (r *itRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func itWait(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timed out waiting for ", what)
}

// TestIntegrationFederationOverRealTCP runs the full home→cloud path over
// actual sockets: attested federation, cross-domain channel, enforced and
// audited delivery.
func TestIntegrationFederationOverRealTCP(t *testing.T) {
	home, err := core.NewDomain("home", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hospital, err := core.NewDomain("hospital", core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	listener, err := transport.TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	go hospital.Serve(listener)

	home.EnrollPeer(hospital.TPM().DeviceID(), hospital.TPM().EndorsementKey())
	peer, err := home.Federate(transport.TCPNetwork{}, listener.Addr(),
		hospital.TPM(), attest.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if peer != "hospital" {
		t.Fatalf("peer = %q", peer)
	}

	if _, err := home.Bus().Register("ann-device", "hospital", itAnnCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: itVitals()}); err != nil {
		t.Fatal(err)
	}
	rec := &itRecorder{}
	if _, err := hospital.Bus().Register("analyser", "hospital", itAnnCtx(), rec.handler(),
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: itVitals()}); err != nil {
		t.Fatal(err)
	}
	if err := home.Bus().Connect(core.PolicyEnginePrincipal,
		"ann-device.out", "hospital:analyser.in"); err != nil {
		t.Fatal(err)
	}

	dev, err := home.Bus().Component("ann-device")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		m := msg.New("vitals").Set("patient", msg.Str("ann")).Set("heart-rate", msg.Float(70+float64(i)))
		m.DataID = "tcp-reading"
		if _, err := dev.Publish("out", m); err != nil {
			t.Fatal(err)
		}
	}
	itWait(t, func() bool { return rec.count() == 5 }, "TCP deliveries")

	// Both domains audited; both chains verify.
	for _, d := range []*core.Domain{home, hospital} {
		if bad, err := d.Log().Verify(); err != nil || bad != -1 {
			t.Fatalf("%s log verify = %d, %v", d.Name(), bad, err)
		}
	}
}

// TestIntegrationGatewayPipeline runs constrained device → gateway
// (labelling, consent, store-and-forward) → analyser, with an uplink
// outage in the middle.
func TestIntegrationGatewayPipeline(t *testing.T) {
	d, err := core.NewDomain("home", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := gateway.New(d.Bus(), "gw", "hospital", itAnnCtx(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := gw.Component().Entity().GrantPrivileges(ifc.OwnerPrivileges("medical", "ann")); err != nil {
		t.Fatal(err)
	}
	gw.AddDevice(gateway.DeviceEntry{DeviceID: "ann-sensor", Ctx: itAnnCtx(), Consent: true})

	rec := &itRecorder{}
	if _, err := d.Bus().Register("analyser", "hospital", itAnnCtx(), rec.handler(),
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: gateway.ReadingSchema}); err != nil {
		t.Fatal(err)
	}
	if err := d.Bus().Connect(core.PolicyEnginePrincipal, "gw.readings", "analyser.in"); err != nil {
		t.Fatal(err)
	}

	sensor := device.NewVitalsSensor("ann-sensor", 70, 9, time.Unix(0, 0), time.Second)
	// Phase 1: online.
	for i := 0; i < 3; i++ {
		if err := gw.Ingest(sensor.Next()); err != nil {
			t.Fatal(err)
		}
	}
	// Phase 2: uplink outage buffers.
	gw.SetUplink(false)
	for i := 0; i < 4; i++ {
		if err := gw.Ingest(sensor.Next()); err != nil {
			t.Fatal(err)
		}
	}
	if rec.count() != 3 || gw.Buffered() != 4 {
		t.Fatalf("delivered=%d buffered=%d", rec.count(), gw.Buffered())
	}
	// Phase 3: recovery flushes in order.
	gw.SetUplink(true)
	if n, err := gw.Flush(); err != nil || n != 4 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	if rec.count() != 7 {
		t.Fatalf("total delivered = %d", rec.count())
	}
	// The provenance of the final reading reaches back to the sensor.
	g := audit.BuildGraph(d.Log().Select(nil))
	desc, err := g.Descendants("ann-sensor/heart-rate/0")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range desc {
		if strings.Contains(n, "analyser") {
			found = true
		}
	}
	if !found {
		t.Fatalf("descendants = %v", desc)
	}
}

// TestIntegrationAbsenceDrivenQuarantine closes a detect/respond loop on
// silence: when a sensor stops heartbeating, policy quarantines its
// component and raises an alert (Challenge 6's intermittently connected
// things surfaced to the policy plane).
func TestIntegrationAbsenceDrivenQuarantine(t *testing.T) {
	now := time.Unix(1700000000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(dt time.Duration) { mu.Lock(); now = now.Add(dt); mu.Unlock() }

	d, err := core.NewDomain("home", core.Options{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bus().Register("flaky-sensor", "hospital", itAnnCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: itVitals()}); err != nil {
		t.Fatal(err)
	}
	d.RegisterPattern(&lciot.AbsencePattern{
		PatternName: "sensor-offline",
		Match:       func(e lciot.Event) bool { return e.Type == "heartbeat" && e.Source == "flaky-sensor" },
		Timeout:     time.Minute,
	})
	if err := d.LoadPolicy(`
rule "contain-offline" {
    on event "sensor-offline"
    do quarantine "flaky-sensor"; alert "flaky-sensor offline, quarantined"
}`); err != nil {
		t.Fatal(err)
	}

	d.FeedEvent(lciot.Event{Type: "heartbeat", Source: "flaky-sensor", Time: clock()})
	d.Tick() // silence not yet long enough
	comp, _ := d.Bus().Component("flaky-sensor")
	if comp.Quarantined() {
		t.Fatal("quarantined too early")
	}
	advance(2 * time.Minute)
	d.Tick()
	if !comp.Quarantined() {
		t.Fatal("offline sensor not quarantined")
	}
	if len(d.Alerts()) != 1 {
		t.Fatalf("alerts = %v", d.Alerts())
	}
}

// TestIntegrationDistributedAuditCollection builds the hierarchy of
// Challenge 6: a thing's log forwards into its domain's collector; the
// thing prunes its own history after offload and everything remains
// verifiable.
func TestIntegrationDistributedAuditCollection(t *testing.T) {
	collector := audit.NewLog(nil)
	thing := audit.NewLog(nil)
	thing.AddSink(func(r audit.Record) {
		r.Domain = "collected-from-thing"
		collector.AppendAsync(r)
	})

	for i := 0; i < 20; i++ {
		thing.AppendAsync(audit.Record{Kind: audit.FlowAllowed, Src: "s", Dst: "d", DataID: "x"})
	}
	// The thing offloads and prunes its first 15 records.
	segment := thing.Select(func(r audit.Record) bool { return r.Seq < 15 })
	if n := thing.Prune(15); n != 15 || len(segment) != 15 {
		t.Fatalf("pruned %d records (segment %d), want 15", n, len(segment))
	}
	if err := audit.VerifySegment(segment, nil); err != nil {
		t.Fatal(err)
	}
	first, err := thing.Get(15)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit.VerifySegment(segment, &first); err != nil {
		t.Fatal(err)
	}
	// The retained tail and the collector both verify.
	if bad, err := thing.Verify(); err != nil || bad != -1 {
		t.Fatalf("thing verify = %d, %v", bad, err)
	}
	if bad, err := collector.Verify(); err != nil || bad != -1 {
		t.Fatalf("collector verify = %d, %v", bad, err)
	}
	if collector.Len() != 20 {
		t.Fatalf("collector has %d records", collector.Len())
	}
}

// TestIntegrationEmergencyAcrossDomains runs the Fig. 7 emergency where
// the emergency team lives in a *different* domain: the policy-driven
// replug crosses the federation link.
func TestIntegrationEmergencyAcrossDomains(t *testing.T) {
	net := transport.NewMemNetwork()
	home, err := core.NewDomain("home", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hospital, err := core.NewDomain("hospital", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	listener, err := net.Listen("hospital")
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	go hospital.Serve(listener)
	home.EnrollPeer(hospital.TPM().DeviceID(), hospital.TPM().EndorsementKey())
	if _, err := home.Federate(net, "hospital", hospital.TPM(), attest.Policy{}); err != nil {
		t.Fatal(err)
	}

	if _, err := home.Bus().Register("ann-device", "hospital", itAnnCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: itVitals()}); err != nil {
		t.Fatal(err)
	}
	rec := &itRecorder{}
	if _, err := hospital.Bus().Register("emergency-team", "hospital", itAnnCtx(), rec.handler(),
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: itVitals()}); err != nil {
		t.Fatal(err)
	}

	home.Store().Set("emergency", ctxmodel.Bool(false))
	d := home
	d.RegisterPattern(&lciot.ThresholdPattern{
		PatternName: "tachycardia",
		Match:       func(e lciot.Event) bool { return e.Value > 120 },
		Count:       3, Window: 10 * time.Minute,
	})
	if err := d.LoadPolicy(`
rule "emergency" priority 10 {
    on event "tachycardia"
    when not ctx.emergency
    do set emergency = true;
       connect "ann-device.out" -> "hospital:emergency-team.in";
       alert "cross-domain emergency replug"
}`); err != nil {
		t.Fatal(err)
	}

	base := time.Unix(1700000000, 0)
	for i := 0; i < 3; i++ {
		d.FeedEvent(lciot.Event{Type: "hr", Time: base.Add(time.Duration(i) * time.Second), Value: 150})
	}
	if len(d.Alerts()) != 1 {
		t.Fatalf("alerts = %v", d.Alerts())
	}

	dev, _ := home.Bus().Component("ann-device")
	m := msg.New("vitals").Set("patient", msg.Str("ann")).Set("heart-rate", msg.Float(150))
	if _, err := dev.Publish("out", m); err != nil {
		t.Fatal(err)
	}
	itWait(t, func() bool { return rec.count() == 1 }, "cross-domain emergency delivery")
}

// TestIntegrationDeniedFlowNeverReachesHandler is the safety net property
// stated end-to-end: no combination of reconfiguration can make data reach
// a handler whose component's context does not dominate the source.
func TestIntegrationDeniedFlowNeverReachesHandler(t *testing.T) {
	d, err := core.NewDomain("dom", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bus().Register("secret-src", "hospital", itAnnCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: itVitals()}); err != nil {
		t.Fatal(err)
	}
	rec := &itRecorder{}
	if _, err := d.Bus().Register("public-sink", "hospital", ifc.SecurityContext{}, rec.handler(),
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: itVitals()}); err != nil {
		t.Fatal(err)
	}

	// Attempt 1: direct connect.
	if err := d.Bus().Connect(core.PolicyEnginePrincipal, "secret-src.out", "public-sink.in"); !errors.Is(err, ifc.ErrFlowDenied) {
		t.Fatalf("direct connect = %v", err)
	}
	// Attempt 2: connect legally, then declassify the sink... which is
	// impossible without privileges; grant them, connect, then raise the
	// source again and verify the channel dies.
	sink, _ := d.Bus().Component("public-sink")
	if err := d.Bus().GrantPrivileges(core.PolicyEnginePrincipal, "public-sink",
		ifc.OwnerPrivileges("medical", "ann")); err != nil {
		t.Fatal(err)
	}
	if err := sink.SetContext(itAnnCtx()); err != nil {
		t.Fatal(err)
	}
	if err := d.Bus().Connect(core.PolicyEnginePrincipal, "secret-src.out", "public-sink.in"); err != nil {
		t.Fatal(err)
	}
	// The sink declassifies itself back to public: the channel must be torn
	// down before any further message can flow.
	if err := sink.SetContext(ifc.SecurityContext{}); err != nil {
		t.Fatal(err)
	}
	src, _ := d.Bus().Component("secret-src")
	m := msg.New("vitals").Set("patient", msg.Str("ann")).Set("heart-rate", msg.Float(70))
	if n, err := src.Publish("out", m); err != nil || n != 0 {
		t.Fatalf("publish after sink declassified = %d, %v", n, err)
	}
	if rec.count() != 0 {
		t.Fatal("labelled data reached a public handler")
	}
}
