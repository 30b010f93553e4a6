package sbus

import (
	"reflect"
	"strings"
	"testing"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
)

// taggedVitals is a vitals type with a whole-type secrecy tag T and a
// secrecy-tagged attribute (name, tag C): a sink needs clearance T to
// receive it at all and C to see the name.
func taggedVitals() *msg.Schema {
	return msg.MustSchema("tagged-vitals", ifc.MustLabel("T"),
		msg.Field{Name: "patient", Type: msg.TString, Required: true},
		msg.Field{Name: "heart-rate", Type: msg.TFloat, Required: true},
		msg.Field{Name: "name", Type: msg.TString, Secrecy: ifc.MustLabel("C")},
	)
}

// A pathOutcome is what one delivery left behind on the receiving bus.
type pathOutcome struct {
	Handled        bool // the sink's handler ran
	Kind           audit.EventKind
	DataID         string
	Note           string // the audit note without its "delivery "/"ingress " prefix
	Quenched       []string
	CompDelivered  uint64 // Component.Delivered() delta
	ShardDelivered uint64 // the sink shard's ShardStats().Delivered delta
}

// TestLocalAndIngressDeliveriesAgree delivers the same sampled message to
// a sink on the publisher's bus (deliverLocal, as a handoff would) and to
// an identically configured sink across a link (sendRemote, then the
// peer's ingress), and requires the two deliveries to agree on everything
// the shared pipeline decides: verdict, record kind, data ID, note,
// quenched attributes and delivery counts. An allowed sampled delivery
// closes the audit stage edge on every node it is audited on.
func TestLocalAndIngressDeliveriesAgree(t *testing.T) {
	traceTestSetup(t)
	if !telemetry.Enabled() {
		telemetry.Enable()
		t.Cleanup(telemetry.Disable)
	}
	declassify := ifc.Privileges{
		RemoveSecrecy:   ifc.MustLabel("ann", "medical"),
		RemoveIntegrity: ifc.MustLabel("hosp-dev", "consent"),
	}
	cases := []struct {
		name    string
		setup   func(t *testing.T, sink *Component)
		handled bool
		note    string
	}{
		{"allowed", func(t *testing.T, sink *Component) {
			sink.SetClearance(ifc.MustLabel("T", "C"))
		}, true, "delivered"},
		{"quenched", func(t *testing.T, sink *Component) {
			sink.SetClearance(ifc.MustLabel("T"))
		}, true, "delivered with quenched attributes: name"},
		{"quarantined", func(t *testing.T, sink *Component) {
			sink.SetClearance(ifc.MustLabel("T", "C"))
			sink.setQuarantined(true)
		}, false, "denied: destination quarantined"},
		{"ifc", func(t *testing.T, sink *Component) {
			sink.SetClearance(ifc.MustLabel("T", "C"))
			if err := sink.Entity().GrantPrivileges(declassify); err != nil {
				t.Fatal(err)
			}
			if err := sink.SetContext(ifc.SecurityContext{}); err != nil {
				t.Fatal(err)
			}
		}, false, "denied by IFC: " + ifc.EnforceFlow(annCtx(), ifc.SecurityContext{}).Error()},
		{"clearance", func(t *testing.T, sink *Component) {
			sink.SetClearance(ifc.MustLabel("C"))
		}, false, "denied: type tags {T} exceed clearance {C}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			home, cloud, _ := linkedBuses(t)
			dev, err := home.Register("tag-dev", "hospital", annCtx(), nil,
				EndpointSpec{Name: "out", Dir: Source, Schema: taggedVitals()})
			if err != nil {
				t.Fatal(err)
			}
			devOut, _ := dev.Endpoint("out")
			sinks := map[*Bus]*sinkRecorder{home: {}, cloud: {}}
			for b, rec := range sinks {
				if _, err := b.Register("tag-sink", "hospital", annCtx(), rec.handler(),
					EndpointSpec{Name: "in", Dir: Sink, Schema: taggedVitals()}); err != nil {
					t.Fatal(err)
				}
			}
			if err := home.Connect("hospital", "tag-dev.out", "tag-sink.in"); err != nil {
				t.Fatal(err)
			}
			if err := home.Connect("hospital", "tag-dev.out", "cloud-bus:tag-sink.in"); err != nil {
				t.Fatal(err)
			}
			// Captured before setup: a context change tears the local
			// channel down, and a delivery already handed off still runs
			// the pipeline on it.
			localCh := home.channelByKey(channelKey{src: "tag-dev.out", dst: "tag-sink.in"})
			for b := range sinks {
				sink, _ := b.Component("tag-sink")
				tc.setup(t, sink)
			}

			newMsg := func() *msg.Message {
				m := msg.New("tagged-vitals").Set("patient", msg.Str("ann")).
					Set("heart-rate", msg.Float(72)).Set("name", msg.Str("Ann Smith"))
				m.DataID = "reading-" + tc.name
				var ok bool
				if m.Trace, ok = telemetry.StartTrace(); !ok {
					t.Fatal("trace sampling 1 did not sample")
				}
				return m
			}
			got := map[*Bus]pathOutcome{}
			edges := map[*Bus]uint64{}
			for _, b := range []*Bus{home, cloud} {
				sink, _ := b.Component("tag-sink")
				sel := func(r audit.Record) bool {
					return r.Dst == sink.Entity().ID() && (r.Kind == audit.FlowAllowed || r.Kind == audit.FlowDenied)
				}
				recsBefore := len(b.Log().Select(sel))
				home.Log().Flush()
				edgesBefore := stageAuditCount(t)
				compBefore := sink.Delivered()
				shardBefore := b.ShardStats()[sink.shard].Delivered

				if b == home {
					ok := home.deliverLocal(localCh, newMsg())
					if ok != tc.handled {
						t.Fatalf("deliverLocal = %v, want %v", ok, tc.handled)
					}
				} else if err := home.sendRemote(dev, devOut, "cloud-bus", "tag-sink.in", newMsg()); err != nil {
					t.Fatal(err)
				}
				var recs []audit.Record
				waitFor(t, func() bool {
					recs = b.Log().Select(sel)
					return len(recs) > recsBefore
				}, "the delivery's audit record")
				if len(recs) != recsBefore+1 {
					t.Fatalf("%s: %d new delivery records, want 1", b.Name(), len(recs)-recsBefore)
				}
				home.Log().Flush()
				edges[b] = stageAuditCount(t) - edgesBefore

				r := recs[len(recs)-1]
				out := pathOutcome{
					Kind:           r.Kind,
					DataID:         r.DataID,
					Note:           strings.TrimPrefix(strings.TrimPrefix(r.Note, "delivery "), "ingress "),
					CompDelivered:  sink.Delivered() - compBefore,
					ShardDelivered: b.ShardStats()[sink.shard].Delivered - shardBefore,
				}
				if rec := sinks[b]; rec.count() > 0 {
					out.Handled = true
					_, d := rec.last()
					out.Quenched = d.Quenched
				}
				got[b] = out
			}

			if got[home].Handled != tc.handled || got[home].Note != tc.note {
				t.Fatalf("local delivery: handled %v, note %q; want %v, %q",
					got[home].Handled, got[home].Note, tc.handled, tc.note)
			}
			if !reflect.DeepEqual(got[home], got[cloud]) {
				t.Errorf("paths disagree:\n local   %+v\n ingress %+v", got[home], got[cloud])
			}
			if tc.handled {
				// Local: the delivery record. Across the link: the
				// sender's egress record and the receiver's delivery
				// record.
				if edges[home] != 1 || edges[cloud] != 2 {
					t.Errorf("stage_decide_audit_ns observations: local %d, link %d; want 1, 2",
						edges[home], edges[cloud])
				}
			}
		})
	}
}

// stageAuditCount reads the process-wide stage_decide_audit_ns count.
func stageAuditCount(t *testing.T) uint64 {
	t.Helper()
	m, ok := telemetry.Find(telemetry.Snapshot(), "stage_decide_audit_ns")
	if !ok || m.Hist == nil {
		t.Fatal("no stage_decide_audit_ns histogram")
	}
	return m.Hist.Count
}
