package sbus

import (
	"errors"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/transport"
)

// linkedBuses builds two buses joined over an in-memory network:
// "home-bus" (Ann's device) and "cloud-bus" (Ann's analyser), the Fig. 9
// two-machine layout.
func linkedBuses(t *testing.T) (home, cloud *Bus, rec *sinkRecorder) {
	t.Helper()
	net := transport.NewMemNetwork()

	home = NewShardedBus("home-bus", 1, openACL(), nil, nil)
	cloud = NewShardedBus("cloud-bus", 1, openACL(), nil, nil)

	listener, err := net.Listen("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	go cloud.Serve(listener)
	t.Cleanup(func() { listener.Close() })

	peer, err := home.LinkTo(net, "cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	if peer != "cloud-bus" {
		t.Fatalf("peer = %q", peer)
	}

	if _, err := home.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	rec = &sinkRecorder{}
	if _, err := cloud.Register("ann-analyser", "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	return home, cloud, rec
}

// waitFor polls until the condition holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFig9CrossMachineFlow is experiment E9: kernel-equivalent context
// travels with the message; the receiving substrate enforces on ingress.
func TestFig9CrossMachineFlow(t *testing.T) {
	home, cloud, rec := linkedBuses(t)

	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatalf("cross-bus connect: %v", err)
	}
	annDev, _ := home.Component("ann-device")
	if n, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 1 {
		t.Fatalf("publish = %d, %v", n, err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "cross-bus delivery")

	m, d := rec.last()
	if v, _ := m.Get("heart-rate"); v.Float != 72 {
		t.Fatalf("delivered = %v", m)
	}
	if d.From != "home-bus:ann-device.out" {
		t.Fatalf("From = %q", d.From)
	}
	// Both substrates audited the flow (Fig. 9: enforcement at each side).
	egress := home.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.FlowAllowed && r.Note == "egress to peer bus"
	})
	ingress := cloud.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.FlowAllowed && r.Note == "delivered"
	})
	if len(egress) != 1 || len(ingress) != 1 {
		t.Fatalf("egress records = %d, ingress records = %d", len(egress), len(ingress))
	}
}

// TestServeLinkRefusesOldVersionHello: a peer built for link protocol v3
// opens with a v3-header hello (no frame trailer). The acceptor refuses it
// with ErrProtocol, and Serve audits the rejected handshake.
func TestServeLinkRefusesOldVersionHello(t *testing.T) {
	frame, err := AppendLinkFrame(nil, &LinkFrame{Kind: "hello", ID: 3, Bus: "old-bus"})
	if err != nil {
		t.Fatal(err)
	}
	v3Hello := append([]byte{linkMagic, 3, 0, 1}, frame[:len(frame)-trailerLen]...)

	net := transport.NewMemNetwork()
	cloud := NewShardedBus("cloud-bus", 1, openACL(), nil, nil)
	listener, err := net.Listen("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { listener.Close() })
	dialV3 := func() {
		t.Helper()
		conn, err := net.Dial("cloud-addr")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		if err := conn.Send(v3Hello); err != nil {
			t.Fatal(err)
		}
	}

	dialV3()
	conn, err := listener.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if err := cloud.ServeLink(conn); !errors.Is(err, ErrProtocol) {
		t.Fatalf("ServeLink(v3 hello) = %v, want ErrProtocol", err)
	}

	go cloud.Serve(listener)
	dialV3()
	waitFor(t, func() bool {
		return len(cloud.Log().Select(func(r audit.Record) bool {
			return r.Kind == audit.FlowDenied && containsAll(r.Note, "link handshake rejected", "v3", "v5")
		})) == 1
	}, "audited handshake rejection")
	if links := cloud.Links(); len(links) != 0 {
		t.Fatalf("links after refused hellos = %v", links)
	}
}

func TestCrossBusConnectRefusedByIFC(t *testing.T) {
	home, cloud, _ := linkedBuses(t)

	// Register Zeb's device on the home bus; the cloud analyser is Ann's.
	if _, err := home.Register("zeb-device", "hospital", zebCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	err := home.Connect("hospital", "zeb-device.out", "cloud-bus:ann-analyser.in")
	if err == nil {
		t.Fatal("illegal cross-bus connect succeeded")
	}
	// The remote bus recorded the denial.
	denials := cloud.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowDenied })
	if len(denials) != 1 {
		t.Fatalf("remote denials = %d", len(denials))
	}
}

// TestCrossBusIngressRecheck verifies that the *receiving* bus re-evaluates
// every message: when the remote sink's context changes after the channel
// was established, in-flight messages are refused at ingress.
func TestCrossBusIngressRecheck(t *testing.T) {
	home, cloud, rec := linkedBuses(t)
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	annDev, _ := home.Component("ann-device")
	if _, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "first delivery")

	// The analyser declassifies to public: Ann's data must no longer enter.
	analyser, _ := cloud.Component("ann-analyser")
	if err := analyser.Entity().GrantPrivileges(ifc.Privileges{
		RemoveSecrecy:   ifc.MustLabel("ann", "medical"),
		RemoveIntegrity: ifc.MustLabel("hosp-dev", "consent"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := analyser.SetContext(ifc.SecurityContext{}); err != nil {
		t.Fatal(err)
	}

	if _, err := annDev.Publish("out", vitalsMessage("ann", 99)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		denied := cloud.Log().Select(func(r audit.Record) bool {
			return r.Kind == audit.FlowDenied && r.Note == "ingress denied by IFC: "+ifc.EnforceFlow(annCtx(), ifc.SecurityContext{}).Error()
		})
		return len(denied) == 1
	}, "ingress denial")
	if rec.count() != 1 {
		t.Fatalf("deliveries = %d, want 1 (second message refused)", rec.count())
	}
}

func TestCrossBusMessageWithoutChannelDropped(t *testing.T) {
	home, cloud, rec := linkedBuses(t)
	// Bypass Connect: send a raw message frame down the link.
	l, err := home.linkFor("cloud-bus")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := msg.EncodeBinary(vitalsMessage("ann", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := annCtx()
	if err := l.sendFrame(&LinkFrame{
		Kind: "message", Src: "home-bus:ann-device.out", Dst: "ann-analyser.in",
		SrcSecrecy: ctx.Secrecy, SrcIntegrity: ctx.Integrity,
		Schema: "vitals", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		denied := cloud.Log().Select(func(r audit.Record) bool {
			return r.Kind == audit.FlowDenied && r.Note == "ingress denied: no established channel"
		})
		return len(denied) == 1
	}, "channel-less ingress denial")
	if rec.count() != 0 {
		t.Fatal("message delivered without a channel")
	}
}

// TestCrossBusMessageToUnknownSinkAudited: the peer chooses a frame's
// Dst, so one naming no local sink is refused with an audit record that
// names the address, not dropped silently.
func TestCrossBusMessageToUnknownSinkAudited(t *testing.T) {
	home, cloud, rec := linkedBuses(t)
	l, err := home.linkFor("cloud-bus")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := msg.EncodeBinary(vitalsMessage("ann", 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := annCtx()
	if err := l.sendFrame(&LinkFrame{
		Kind: "message", Src: "home-bus:ann-device.out", Dst: "nobody.in",
		SrcSecrecy: ctx.Secrecy, SrcIntegrity: ctx.Integrity,
		Schema: "vitals", Payload: payload,
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		denied := cloud.Log().Select(func(r audit.Record) bool {
			return r.Kind == audit.FlowDenied && r.Note == "ingress denied: no such sink: nobody.in" &&
				r.Dst == "nobody.in" && r.Src == "home-bus:ann-device.out"
		})
		return len(denied) == 1
	}, "unknown-sink ingress denial")
	if rec.count() != 0 {
		t.Fatal("message to an unknown sink was delivered")
	}
}

func TestCrossBusConnectToUnlinkedBus(t *testing.T) {
	home, _, _ := linkedBuses(t)
	err := home.Connect("hospital", "ann-device.out", "mars-bus:x.in")
	if !errors.Is(err, ErrLinkDown) {
		t.Fatalf("connect to unlinked bus = %v", err)
	}
}

func TestCrossBusSchemaMismatch(t *testing.T) {
	home, cloud, _ := linkedBuses(t)
	other := msg.MustSchema("other", ifc.EmptyLabel, msg.Field{Name: "x", Type: msg.TInt})
	if _, err := cloud.Register("odd", "hospital", annCtx(), nil,
		EndpointSpec{Name: "in", Dir: Sink, Schema: other}); err != nil {
		t.Fatal(err)
	}
	err := home.Connect("hospital", "ann-device.out", "cloud-bus:odd.in")
	if err == nil {
		t.Fatal("cross-bus schema mismatch accepted")
	}
}

func TestLinkListing(t *testing.T) {
	home, cloud, _ := linkedBuses(t)
	if links := home.Links(); len(links) != 1 || links[0] != "cloud-bus" {
		t.Fatalf("home links = %v", links)
	}
	// The acceptor records the link after answering the hello, so it can
	// trail the dialer's LinkTo by a moment.
	waitFor(t, func() bool { return len(cloud.Links()) > 0 }, "the acceptor's link")
	if links := cloud.Links(); len(links) != 1 || links[0] != "home-bus" {
		t.Fatalf("cloud links = %v", links)
	}
}

func TestCrossBusQuench(t *testing.T) {
	net := transport.NewMemNetwork()
	home := NewShardedBus("home-bus", 1, openACL(), nil, nil)
	cloud := NewShardedBus("cloud-bus", 1, openACL(), nil, nil)
	listener, err := net.Listen("cloud")
	if err != nil {
		t.Fatal(err)
	}
	go cloud.Serve(listener)
	t.Cleanup(func() { listener.Close() })
	if _, err := home.LinkTo(net, "cloud"); err != nil {
		t.Fatal(err)
	}

	person := msg.MustSchema("person", ifc.EmptyLabel,
		msg.Field{Name: "name", Type: msg.TString, Secrecy: ifc.MustLabel("C")},
		msg.Field{Name: "country", Type: msg.TString},
	)
	if _, err := home.Register("app", "hospital", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: person}); err != nil {
		t.Fatal(err)
	}
	rec := &sinkRecorder{}
	if _, err := cloud.Register("analyser", "hospital", ifc.SecurityContext{}, rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: person}); err != nil {
		t.Fatal(err)
	}
	// No clearance for C on the receiving side.
	if err := home.Connect("hospital", "app.out", "cloud-bus:analyser.in"); err != nil {
		t.Fatal(err)
	}
	app, _ := home.Component("app")
	m := msg.New("person").Set("name", msg.Str("ann")).Set("country", msg.Str("uk"))
	if _, err := app.Publish("out", m); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "quenched delivery")
	got, d := rec.last()
	if _, ok := got.Get("name"); ok {
		t.Fatal("sensitive attribute crossed the link")
	}
	if len(d.Quenched) != 1 || d.Quenched[0] != "name" {
		t.Fatalf("quenched = %v", d.Quenched)
	}
}
