package sbus

import (
	"testing"

	"lciot/internal/audit"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
	"lciot/internal/transport"
)

// traceTestSetup turns on head sampling for every publish and restores the
// quiet default (plus an empty span buffer) when the test ends.
func traceTestSetup(t *testing.T) {
	t.Helper()
	telemetry.ResetSpans()
	telemetry.SetTraceSampling(1)
	t.Cleanup(func() {
		telemetry.SetTraceSampling(0)
		telemetry.ResetSpans()
	})
}

// relayChain builds three buses federated in a line over an in-memory
// network — tr-alpha → tr-beta → tr-gamma — where tr-beta's relay
// component republishes every delivery, so a message published on
// tr-alpha crosses two links before reaching the recorder on tr-gamma.
func relayChain(t *testing.T) (alpha *Bus, beta *Bus, gamma *Bus, rec *sinkRecorder) {
	t.Helper()
	netw := transport.NewMemNetwork()

	alpha = NewShardedBus("tr-alpha", 1, openACL(), nil, nil)
	beta = NewShardedBus("tr-beta", 1, openACL(), nil, nil)
	gamma = NewShardedBus("tr-gamma", 1, openACL(), nil, nil)

	for addr, b := range map[string]*Bus{"beta-addr": beta, "gamma-addr": gamma} {
		ln, err := netw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go b.Serve(ln)
		t.Cleanup(func() { ln.Close() })
	}
	if _, err := alpha.LinkTo(netw, "beta-addr"); err != nil {
		t.Fatal(err)
	}
	if _, err := beta.LinkTo(netw, "gamma-addr"); err != nil {
		t.Fatal(err)
	}

	if _, err := alpha.Register("dev", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	// The relay republishes on its own source endpoint, preserving the
	// message (and, with it, the trace context stamped at ingress).
	var relay *Component
	relay, err := beta.Register("relay", "hospital", annCtx(),
		func(m *msg.Message, _ Delivery) {
			if _, err := relay.Publish("out", m); err != nil {
				t.Errorf("relay publish: %v", err)
			}
		},
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()},
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	rec = &sinkRecorder{}
	if _, err := gamma.Register("sink", "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}

	if err := alpha.Connect("hospital", "dev.out", "tr-beta:relay.in"); err != nil {
		t.Fatal(err)
	}
	if err := beta.Connect("hospital", "relay.out", "tr-gamma:sink.in"); err != nil {
		t.Fatal(err)
	}
	return alpha, beta, gamma, rec
}

// TestTraceRelayTwoHops is the acceptance scenario: a message published on
// node A and relayed through B to C yields one trace whose hop counter
// reads 0/1/2 across the three nodes and whose trace ID appears in the
// audit records at each node.
func TestTraceRelayTwoHops(t *testing.T) {
	traceTestSetup(t)
	alpha, beta, gamma, rec := relayChain(t)

	dev, _ := alpha.Component("dev")
	if n, err := dev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 1 {
		t.Fatalf("publish = %d, %v", n, err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "two-hop relay delivery")

	// The trace ID is read where provenance meets performance: the audit
	// record of the final delivery.
	final := gamma.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.FlowAllowed && r.Note == "delivered"
	})
	if len(final) != 1 {
		t.Fatalf("final delivery records = %d", len(final))
	}
	id, ok := telemetry.ParseTraceID(final[0].TraceID)
	if !ok {
		t.Fatalf("final audit record carries no trace ID (%q)", final[0].TraceID)
	}

	// One trace, hops counting up monotonically across the nodes.
	hops := map[string]uint8{}
	kinds := map[string]bool{}
	for _, s := range telemetry.Spans() {
		if s.Trace != id {
			continue
		}
		hops[s.Node] = s.Hop
		kinds[s.Node+"/"+s.Kind] = true
	}
	want := map[string]uint8{"tr-alpha": 0, "tr-beta": 1, "tr-gamma": 2}
	for node, hop := range want {
		got, ok := hops[node]
		if !ok || got != hop {
			t.Errorf("node %s: hop = %d (recorded %v), want %d", node, got, ok, hop)
		}
	}
	for _, k := range []string{"tr-alpha/publish", "tr-alpha/egress", "tr-beta/ingress",
		"tr-beta/relay", "tr-beta/egress", "tr-gamma/ingress", "tr-gamma/deliver"} {
		if !kinds[k] {
			t.Errorf("missing span %s (got %v)", k, kinds)
		}
	}

	// Every bus on the path stamped the ID into its audit trail.
	for _, b := range []*Bus{alpha, beta, gamma} {
		n := len(b.Log().Select(func(r audit.Record) bool {
			return r.Kind == audit.FlowAllowed && r.TraceID == id.String()
		}))
		if n == 0 {
			t.Errorf("bus %s: no audit record carries trace %s", b.Name(), id)
		}
	}
}

// TestLinkTraceTrailerCrossesLink confirms the frame trailer carries the
// trace across one link: the trace ID lands in the peer's audit records,
// the delivered message is one hop deeper, and the one sampling decision
// also carried the stage clock — resumed at ingress, with the link-hop
// edge observed once.
func TestLinkTraceTrailerCrossesLink(t *testing.T) {
	traceTestSetup(t)
	if !telemetry.Enabled() {
		telemetry.Enable()
		t.Cleanup(telemetry.Disable)
	}
	home, cloud, rec := linkedBuses(t)
	if err := home.Connect("hospital", "ann-device.out", "cloud-bus:ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	hopCount := func() uint64 {
		m, ok := telemetry.Find(telemetry.Snapshot(), "stage_link_hop_ns", "bus", "cloud-bus", "peer", "home-bus")
		if !ok || m.Hist == nil {
			t.Fatal("no stage_link_hop_ns{bus=cloud-bus,peer=home-bus} series")
		}
		return m.Hist.Count
	}
	hopsBefore := hopCount()
	dev, _ := home.Component("ann-device")
	if n, err := dev.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 1 {
		t.Fatalf("publish = %d, %v", n, err)
	}
	waitFor(t, func() bool { return rec.count() == 1 }, "cross-bus delivery")
	delivered := cloud.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.FlowAllowed && r.Note == "delivered"
	})
	if len(delivered) != 1 || delivered[0].TraceID == "" {
		t.Fatalf("peer should audit the trace ID, got %+v", delivered)
	}
	m, _ := rec.last()
	if m.Trace.IsZero() || m.Trace.Hop != 1 {
		t.Fatalf("delivered message trace = %+v, want hop 1", m.Trace)
	}
	if m.Trace.Clock == nil {
		t.Fatal("delivered message carries no stage clock")
	}
	if got := hopCount() - hopsBefore; got != 1 {
		t.Fatalf("stage_link_hop_ns observations = %d, want 1", got)
	}
}
