package sbus

import (
	"errors"
	"testing"
	"time"

	"lciot/internal/ifc"
	"lciot/internal/transport"
)

func TestBusAccessors(t *testing.T) {
	bus := NewShardedBus("accessors", 1, openACL(), nil, nil)
	if bus.Name() != "accessors" {
		t.Fatalf("Name = %q", bus.Name())
	}
	if bus.Store() == nil || bus.ACL() == nil || bus.Log() == nil {
		t.Fatal("nil accessors")
	}
}

func TestControlSetClearanceAndDisconnect(t *testing.T) {
	bus, _ := newHomeBus(t)
	if err := bus.Apply(ControlOp{
		Op: "setclearance", By: "policy-engine",
		Component: "ann-analyser", Secrecy: ifc.MustLabel("C"),
	}); err != nil {
		t.Fatal(err)
	}
	analyser, _ := bus.Component("ann-analyser")
	if !analyser.Clearance().Equal(ifc.MustLabel("C")) {
		t.Fatalf("clearance = %v", analyser.Clearance())
	}
	// Clearance on an unknown component fails.
	if err := bus.Apply(ControlOp{
		Op: "setclearance", By: "policy-engine", Component: "ghost",
	}); !errors.Is(err, ErrNoComponent) {
		t.Fatalf("ghost clearance = %v", err)
	}

	// connect + disconnect through the control plane.
	if err := bus.Apply(ControlOp{Op: "connect", By: "policy-engine",
		Src: "ann-device.out", Dst: "ann-analyser.in"}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Apply(ControlOp{Op: "disconnect", By: "policy-engine",
		Src: "ann-device.out", Dst: "ann-analyser.in"}); err != nil {
		t.Fatal(err)
	}
	if len(bus.Channels()) != 0 {
		t.Fatal("disconnect via control plane failed")
	}
}

func TestControlQuarantineRelease(t *testing.T) {
	bus, _ := newHomeBus(t)
	if err := bus.Apply(ControlOp{Op: "quarantine", By: "policy-engine", Component: "zeb-device"}); err != nil {
		t.Fatal(err)
	}
	zeb, _ := bus.Component("zeb-device")
	if !zeb.Quarantined() {
		t.Fatal("not quarantined")
	}
	if err := bus.Apply(ControlOp{Op: "release", By: "policy-engine", Component: "zeb-device"}); err != nil {
		t.Fatal(err)
	}
	if zeb.Quarantined() {
		t.Fatal("not released")
	}
	// Control ops against unknown components error cleanly.
	for _, op := range []string{"quarantine", "release", "grant", "setcontext"} {
		if err := bus.Apply(ControlOp{Op: op, By: "policy-engine", Component: "ghost"}); !errors.Is(err, ErrNoComponent) {
			t.Fatalf("%s ghost = %v", op, err)
		}
	}
}

func TestControlGrantDeniedByAC(t *testing.T) {
	bus := NewShardedBus("b", 1, restrictedACL(), nil, nil)
	if _, err := bus.Register("c", "hospital", ifc.SecurityContext{}, nil); err != nil {
		t.Fatal(err)
	}
	err := bus.Apply(ControlOp{Op: "grant", By: "mallory", Component: "c",
		AddSecrecy: ifc.MustLabel("x")})
	if err == nil {
		t.Fatal("mallory granted privileges")
	}
	err = bus.Apply(ControlOp{Op: "setclearance", By: "mallory", Component: "c"})
	if err == nil {
		t.Fatal("mallory set clearance")
	}
	err = bus.Apply(ControlOp{Op: "quarantine", By: "mallory", Component: "c"})
	if err == nil {
		t.Fatal("mallory quarantined")
	}
}

func TestLinkToFailures(t *testing.T) {
	net := transport.NewMemNetwork()
	bus := NewShardedBus("b", 1, openACL(), nil, nil)
	// No listener.
	if _, err := bus.LinkTo(net, "nowhere"); err == nil {
		t.Fatal("link to nowhere succeeded")
	}
	// Listener that speaks garbage instead of hello.
	l, err := net.Listen("garbage")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = c.Recv()            // swallow the hello
		_ = c.Send([]byte("{bad")) // reply with junk
	}()
	if _, err := bus.LinkTo(net, "garbage"); err == nil {
		t.Fatal("garbage hello accepted")
	}
}

func TestServeLinkBadHello(t *testing.T) {
	net := transport.NewMemNetwork()
	bus := NewShardedBus("b", 1, openACL(), nil, nil)
	l, err := net.Listen("bus")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	errCh := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			errCh <- err
			return
		}
		errCh <- bus.ServeLink(c)
	}()
	c, err := net.Dial("bus")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte(`{"kind":"message"}`)); err != nil { // not a hello
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("bad hello accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeLink hung")
	}
}

func TestLinkReconnectOnConnectionClose(t *testing.T) {
	net := transport.NewMemNetwork()
	a := NewShardedBus("a", 1, openACL(), nil, nil)
	a.SetLinkConfig(LinkConfig{BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond})
	b := NewShardedBus("b", 1, openACL(), nil, nil)
	l, err := net.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go b.Serve(l)
	if _, err := a.LinkTo(net, "b"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(b.Links()) == 1 }, "link establishment")

	// Kill the transport: the dialer redials, and the link self-heals on
	// both sides instead of dropping (protocol v2 semantics).
	link := a.linkTo("b")
	link.mu.Lock()
	conn := link.conn
	link.mu.Unlock()
	conn.Close()
	waitFor(t, func() bool {
		st := a.LinkStatus()
		return len(st) == 1 && st[0].State == LinkUp && st[0].Reconnects >= 1
	}, "initiator reconnect")
	waitFor(t, func() bool { return len(b.Links()) == 1 }, "acceptor re-link")
}

func TestSendRemoteWithLinkDown(t *testing.T) {
	net := transport.NewMemNetwork()
	home := NewShardedBus("home-bus", 1, openACL(), nil, nil)
	// A tiny retry budget so the link gives up quickly once the peer is
	// unreachable for good.
	home.SetLinkConfig(LinkConfig{
		RetryBudget: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	cloud := NewShardedBus("cloud-bus", 1, openACL(), nil, nil)
	listener, err := net.Listen("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	go cloud.Serve(listener)
	if _, err := home.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := cloud.Register("ann-analyser", "hospital", annCtx(), nil,
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.LinkTo(net, "cloud-addr"); err != nil {
		t.Fatal(err)
	}
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	// Take the peer away for good and tear the connection down: once the
	// retry budget is exhausted the link is dropped.
	listener.Close()
	net.SetDown("cloud-addr", true)
	link := home.linkTo("cloud-bus")
	link.mu.Lock()
	conn := link.conn
	link.mu.Unlock()
	conn.Close()
	waitFor(t, func() bool { return len(home.Links()) == 0 }, "link drop")

	annDev, _ := home.Component("ann-device")
	// Publish still succeeds overall (no local sinks fail) but delivers 0.
	if n, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 0 {
		t.Fatalf("publish over dead link = %d, %v", n, err)
	}
}
