package sbus

import (
	"errors"
	"strings"
	"testing"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/transport"
)

// euCtx is a context carrying a residency constraint: the data may only
// reside in eu or uk.
func euCtx() ifc.SecurityContext {
	return annCtx().WithJurisdiction(ifc.MustLabel("eu", "uk"))
}

// residencyPair builds home←→cloud with the cloud bus declaring the given
// jurisdiction in its hello, and an eu/uk-constrained source on home.
func residencyPair(t *testing.T, cloudJur ifc.Label) (home, cloud *Bus, rec *sinkRecorder) {
	t.Helper()
	net := transport.NewMemNetwork()
	home = NewShardedBus("home-bus", 1, openACL(), nil, nil)
	home.SetLinkConfig(fastLinkConfig())
	home.SetJurisdiction(ifc.MustLabel("eu"))
	cloud = NewShardedBus("cloud-bus", 1, openACL(), nil, nil)
	cloud.SetLinkConfig(fastLinkConfig())
	cloud.SetJurisdiction(cloudJur)

	listener, err := net.Listen("cloud-addr")
	if err != nil {
		t.Fatal(err)
	}
	go cloud.Serve(listener)
	t.Cleanup(func() { listener.Close() })

	if _, err := home.Register("ann-device", "hospital", euCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	rec = &sinkRecorder{}
	// The sink declares it resides in eu, within the data's allowed set.
	sinkCtx := annCtx().WithJurisdiction(ifc.MustLabel("eu"))
	if _, err := cloud.Register("ann-analyser", "hospital", sinkCtx, rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := home.LinkTo(net, "cloud-addr"); err != nil {
		t.Fatal(err)
	}
	return home, cloud, rec
}

// TestResidencyEgressAllowedInRegion: a peer declaring a jurisdiction
// inside the allowed set receives constrained data normally.
func TestResidencyEgressAllowedInRegion(t *testing.T) {
	home, _, rec := residencyPair(t, ifc.MustLabel("eu"))
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	annDev, _ := home.Component("ann-device")
	if _, err := annDev.Publish("out", vitalsMessage("ann", 72)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "in-region delivery")
	if st := home.LinkStatus(); len(st) != 1 || !st[0].PeerJurisdiction.Equal(ifc.MustLabel("eu")) {
		t.Fatalf("peer jurisdiction not recorded: %+v", st)
	}
}

// TestResidencyEgressBlocksOutOfRegion: the same constrained data never
// leaves for a us-declared peer — the connect is refused locally with
// ErrResidency and the denial is audited.
func TestResidencyEgressBlocksOutOfRegion(t *testing.T) {
	home, _, rec := residencyPair(t, ifc.MustLabel("us"))
	err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in")
	if !errors.Is(err, ErrResidency) {
		t.Fatalf("out-of-region connect = %v, want ErrResidency", err)
	}
	if rec.count() != 0 {
		t.Fatal("constrained data reached out-of-region peer")
	}
	home.log.Flush()
	denials := home.log.Select(func(r audit.Record) bool {
		return r.Kind == audit.FlowDenied && strings.Contains(r.Note, "residency")
	})
	if len(denials) == 0 {
		t.Fatal("residency denial not audited")
	}
	if got := denials[0].Note; !strings.Contains(got, `peer bus "cloud-bus"`) {
		t.Fatalf("denial note = %q", got)
	}
}

// TestResidencyEgressBlocksUndeclaredPeer: a peer that never declared a
// jurisdiction fails closed for constrained data.
func TestResidencyEgressBlocksUndeclaredPeer(t *testing.T) {
	home, _, _ := residencyPair(t, ifc.EmptyLabel)
	err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in")
	if !errors.Is(err, ErrResidency) {
		t.Fatalf("undeclared-peer connect = %v, want ErrResidency", err)
	}
	if !strings.Contains(err.Error(), "declares none") {
		t.Fatalf("error = %v", err)
	}
}

// TestResidencyPerMessageRecheck: a source whose context acquires a
// constraint after connect is stopped at the next publish, not just at
// establishment.
func TestResidencyPerMessageRecheck(t *testing.T) {
	home, _, rec := residencyPair(t, ifc.MustLabel("us"))
	annDev, _ := home.Component("ann-device")
	// Widening a facet is a declassification-class operation: it needs the
	// remove privilege over the facet tags (granted here by the domain
	// authority). Drop the constraint, connect, then re-adopt it: the
	// per-message gate must catch the change.
	if err := home.GrantPrivileges("hospital", "ann-device",
		ifc.Privileges{RemoveSecrecy: ifc.MustLabel("eu", "uk")}); err != nil {
		t.Fatal(err)
	}
	if err := annDev.SetContext(annCtx()); err != nil {
		t.Fatal(err)
	}
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if _, err := annDev.Publish("out", vitalsMessage("ann", 70)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "unconstrained delivery")
	if err := annDev.SetContext(euCtx()); err != nil {
		t.Fatal(err)
	}
	// Publish reports per-channel outcomes as a delivery count; the
	// constrained message must not count (and must not arrive), with the
	// denial audited.
	n, err := annDev.Publish("out", vitalsMessage("ann", 71))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("constrained publish delivered to %d channels", n)
	}
	home.log.Flush()
	if got := home.log.Select(func(r audit.Record) bool {
		return r.Kind == audit.FlowDenied && strings.Contains(r.Note, "residency")
	}); len(got) == 0 {
		t.Fatal("per-message residency denial not audited")
	}
	if rec.count() != 1 {
		t.Fatalf("out-of-region peer received %d messages, want 1", rec.count())
	}
}
