package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/ctxmodel"
	"lciot/internal/fault"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
)

const telemetryObligation = `
obligation "telemetry-retention" on telemetry {
  retain 1h;
  erase on "subject-erasure";
}
`

// telemetrySchema is the message type the obligation tests stream.
func telemetrySchema() *msg.Schema {
	return msg.MustSchema("telemetry", ifc.EmptyLabel,
		msg.Field{Name: "device", Type: msg.TString, Required: true},
		msg.Field{Name: "value", Type: msg.TFloat, Required: true},
	)
}

// obligationDomain builds a durable domain streaming telemetry-tagged
// data from sensor.out to sink.in.
func obligationDomain(t *testing.T, dir string, clock *testClock) (*Domain, *sbus.Component) {
	t.Helper()
	d, err := NewDomain("plant", Options{Clock: clock.Now, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	if err := d.LoadPolicy(telemetryObligation); err != nil {
		t.Fatal(err)
	}
	ctx := ifc.MustContext([]ifc.Tag{"telemetry"}, nil)
	src, err := d.Bus().Register("sensor", "plant", ctx, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: telemetrySchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bus().Register("sink", "plant", ctx, nil,
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: telemetrySchema()}); err != nil {
		t.Fatal(err)
	}
	if err := d.Bus().Connect(PolicyEnginePrincipal, "sensor.out", "sink.in"); err != nil {
		t.Fatal(err)
	}
	return d, src
}

// publishTelemetry streams n readings with device/metric/seq DataIDs.
func publishTelemetry(t *testing.T, src *sbus.Component, device string, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		m := msg.New("telemetry").Set("device", msg.Str(device)).Set("value", msg.Float(float64(i)))
		m.DataID = fmt.Sprintf("%s/reading/%d", device, i)
		ids[i] = m.DataID
		if _, err := src.Publish("out", m); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestRetentionSweepEndToEnd: data under a retention-limited tag is
// scheduled on ingest, swept after expiry, tombstoned in both audit
// tiers, and the chain plus the retention report prove it.
func TestRetentionSweepEndToEnd(t *testing.T) {
	clock := newTestClock()
	d, src := obligationDomain(t, t.TempDir(), clock)
	ids := publishTelemetry(t, src, "meter", 10)
	d.Log().Flush()
	d.SweepObligations() // drains the schedule announcements
	if got := d.ObligationBacklog(); got != 10 {
		t.Fatalf("backlog = %d, want 10", got)
	}

	// Nothing due yet: a sweep now erases nothing.
	if n := d.SweepObligations(); n != 0 {
		t.Fatalf("premature sweep executed %d", n)
	}
	clock.Advance(2 * time.Hour)
	cutoff := clock.Now()
	if n := d.SweepObligations(); n != 10 {
		t.Fatalf("sweep executed %d, want 10", n)
	}
	if got := d.ObligationBacklog(); got != 0 {
		t.Fatalf("backlog after sweep = %d", got)
	}

	// Both tiers: every telemetry record tombstoned, chains intact.
	if bad, err := d.Log().Verify(); err != nil {
		t.Fatalf("memory chain broken at %d: %v", bad, err)
	}
	if err := d.AuditStore().Sync(); err != nil {
		t.Fatal(err)
	}
	if bad, err := d.AuditStore().Verify(); err != nil {
		t.Fatalf("store chain broken at %d: %v", bad, err)
	}
	recs, err := d.AuditStore().Records(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	idSet := map[string]bool{}
	for _, id := range ids {
		idSet[id] = true
	}
	for _, r := range recs {
		if idSet[r.DataID] && !r.Redacted {
			t.Fatalf("record %d for %s not tombstoned", r.Seq, r.DataID)
		}
	}
	// The regulator-facing proof: all data under the tag older than the
	// cutoff is gone or tombstoned.
	rep := audit.RetentionReport(recs, "telemetry", cutoff)
	if !rep.Compliant {
		t.Fatalf("retention report not compliant: %+v", rep.Violations)
	}
	if rep.Tombstoned == 0 {
		t.Fatal("retention report saw no tombstones")
	}
	// Evidence records for every stage.
	for _, kind := range []audit.EventKind{
		audit.ObligationScheduled, audit.ObligationExecuted, audit.Redaction,
	} {
		if got := d.Log().Select(func(r audit.Record) bool { return r.Kind == kind }); len(got) == 0 {
			t.Fatalf("no %s evidence in the log", kind)
		}
	}
}

// TestSweepResumesFromWAL: kill the domain after scheduling (no sweep),
// reopen on the same data dir, and the rebuilt scheduler must carry out
// the expiry — the crash-mid-sweep resumption contract.
func TestSweepResumesFromWAL(t *testing.T) {
	dir := t.TempDir()
	clock := newTestClock()
	d, src := obligationDomain(t, dir, clock)
	publishTelemetry(t, src, "meter", 25)
	d.Log().Flush()
	if err := d.AuditStore().Sync(); err != nil {
		t.Fatal(err)
	}
	// No clean shutdown path: drop the domain without sweeping.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	clock.Advance(2 * time.Hour)
	d2, _ := obligationDomain(t, dir, clock)
	if got := d2.ObligationBacklog(); got != 25 {
		t.Fatalf("rebuilt backlog = %d, want 25", got)
	}
	if n := d2.SweepObligations(); n != 25 {
		t.Fatalf("resumed sweep executed %d, want 25", n)
	}
	if err := d2.AuditStore().Sync(); err != nil {
		t.Fatal(err)
	}
	if bad, err := d2.AuditStore().Verify(); err != nil {
		t.Fatalf("chain broken at %d after resumed sweep: %v", bad, err)
	}
	recs, err := d2.AuditStore().Records(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := audit.RetentionReport(recs, "telemetry", clock.Now())
	if !rep.Compliant {
		t.Fatalf("resumed sweep left violations: %d", len(rep.Violations))
	}
	// A second rebuild (reload the same policy) must not resurrect
	// deadlines for tombstoned data.
	if err := d2.LoadPolicy(telemetryObligation); err != nil {
		t.Fatal(err)
	}
	if got := d2.ObligationBacklog(); got != 0 {
		t.Fatalf("rebuild resurrected %d deadlines for erased data", got)
	}
}

// TestEraseOnEventPropagates: a "subject-erasure" detection erases the
// tag — provenance descendants included — and purges live state.
func TestEraseOnEventPropagates(t *testing.T) {
	clock := newTestClock()
	d, src := obligationDomain(t, t.TempDir(), clock)
	ids := publishTelemetry(t, src, "ann", 5)
	d.Log().Flush()

	// Live state derived from the subject.
	d.Store().Set("ann/heart-rate", ctxmodel.Number(72))
	d.Store().Set("bob/heart-rate", ctxmodel.Number(68))
	d.RegisterPattern(&cep.Threshold{
		PatternName: "spike", Types: []string{"hr"}, Count: 100, Window: time.Hour,
	})
	d.FeedEvent(cep.Event{Type: "hr", Source: "ann", Time: clock.Now(), Value: 72})
	d.FeedEvent(cep.Event{Type: "hr", Source: "bob", Time: clock.Now(), Value: 68})

	// The erasure trigger declared in the obligation clause.
	d.RegisterPattern(&cep.Threshold{
		PatternName: "subject-erasure", Types: []string{"erasure-request"}, Count: 1, Window: time.Hour,
	})
	d.FeedEvent(cep.Event{Type: "erasure-request", Source: "ann", Time: clock.Now(), Value: 0})

	// Context state for the subject is gone; unrelated subjects survive.
	if _, ok := d.Store().Get("ann/heart-rate"); ok {
		t.Fatal("erased subject's context attribute survived")
	}
	if _, ok := d.Store().Get("bob/heart-rate"); !ok {
		t.Fatal("unrelated subject's context attribute was purged")
	}
	// Every audited record of the erased data is tombstoned.
	d.Log().Flush()
	for _, r := range d.Log().Select(nil) {
		for _, id := range ids {
			if r.DataID == id && !r.Redacted {
				t.Fatalf("record %d for %s survived erasure", r.Seq, r.DataID)
			}
		}
	}
	if bad, err := d.Log().Verify(); err != nil {
		t.Fatalf("chain broken at %d after erasure: %v", bad, err)
	}
	// The scheduler no longer tracks the erased data.
	if got := d.ObligationBacklog(); got != 0 {
		t.Fatalf("backlog after erasure = %d", got)
	}
}

// TestErasurePropagationProperty is the erasure-propagation property test:
// under concurrent ingest, after erasing tag T no live query — context
// store, provenance-guided record scan, store range read — returns a
// non-tombstoned record derived from T's pre-erasure data. Run with -race.
func TestErasurePropagationProperty(t *testing.T) {
	clock := newTestClock()
	d, src := obligationDomain(t, t.TempDir(), clock)

	// Pre-erasure data for the subject.
	ids := publishTelemetry(t, src, "subject", 50)
	d.Log().Flush()
	erased := map[string]bool{}
	for _, id := range ids {
		erased[id] = true
	}

	// Concurrent ingest of *other* subjects while the erasure runs
	// (bounded and paced: the point is interleaving, not throughput).
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m := msg.New("telemetry").Set("device", msg.Str("other")).Set("value", msg.Float(1))
				m.DataID = fmt.Sprintf("other-%d/reading/%d", g, i)
				if _, err := src.Publish("out", m); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(g)
	}

	n := d.EraseTag("telemetry", "right-to-erasure request")
	close(stop)
	wg.Wait()
	if n < 50 {
		t.Fatalf("erasure covered %d data items, want >= 50", n)
	}

	// 1. Context store holds nothing under the subject.
	d.Store().Set("subject/x", ctxmodel.Number(1)) // sanity: deletable state works
	d.EraseData("telemetry", "subject/x", "cleanup")
	if _, ok := d.Store().Get("subject/x"); ok {
		t.Fatal("context attribute survived erasure")
	}

	// 2. No live (non-tombstoned) record in either tier references the
	// erased data.
	checkRecords := func(recs []audit.Record, tier string) {
		t.Helper()
		for _, r := range recs {
			if erased[r.DataID] && !r.Redacted {
				t.Fatalf("%s: record %d for erased %s is live", tier, r.Seq, r.DataID)
			}
		}
	}
	d.Log().Flush()
	checkRecords(d.Log().Select(nil), "memory")
	if err := d.AuditStore().Sync(); err != nil {
		t.Fatal(err)
	}
	recs, err := d.AuditStore().Records(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkRecords(recs, "store")

	// 3. Provenance: the erased data's descendants resolve only to
	// tombstoned records (the graph keeps topology — linkage is evidence —
	// but no live record backs it).
	for _, id := range ids[:5] {
		desc, err := d.Provenance().Descendants(id)
		if err != nil {
			continue
		}
		for _, node := range desc {
			for _, r := range recs {
				if r.DataID == node && erased[r.DataID] && !r.Redacted {
					t.Fatalf("descendant %s of erased %s backed by live record %d", node, id, r.Seq)
				}
			}
		}
	}

	// 4. Chains stay verifiable end to end in both tiers.
	if bad, err := d.Log().Verify(); err != nil {
		t.Fatalf("memory chain broken at %d: %v", bad, err)
	}
	if bad, err := d.AuditStore().Verify(); err != nil {
		t.Fatalf("store chain broken at %d: %v", bad, err)
	}
	// 5. The erasure left evidence.
	execs := d.Log().Select(func(r audit.Record) bool {
		return r.Kind == audit.ObligationExecuted && strings.Contains(r.Note, "right-to-erasure")
	})
	if len(execs) == 0 {
		t.Fatal("no ObligationExecuted evidence for the erasure request")
	}
}

// TestEraseCoversStagedDerivations: erasure expands its targets through
// the provenance graph, which is fed by the log's sink. A derived datum
// whose flow record is staged but not yet committed must still be found
// and tombstoned. The hasher is stalled so the relay's record is still
// staged when EraseData runs.
func TestEraseCoversStagedDerivations(t *testing.T) {
	defer fault.DisarmAll()
	clock := newTestClock()
	d, err := NewDomain("plant", Options{Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.LoadPolicy(telemetryObligation); err != nil {
		t.Fatal(err)
	}
	ctx := ifc.MustContext([]ifc.Tag{"telemetry"}, nil)
	src, err := d.Bus().Register("sensor", "plant", ctx, nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: telemetrySchema()})
	if err != nil {
		t.Fatal(err)
	}
	// The relay derives a new datum from each reading it receives.
	var relay *sbus.Component
	var relayed atomic.Int32
	relay, err = d.Bus().Register("relay", "plant", ctx,
		func(m *msg.Message, _ sbus.Delivery) {
			out := m.Clone()
			out.DataID = strings.Replace(m.DataID, "/reading/", "/derived/", 1)
			if _, err := relay.Publish("out", out); err != nil {
				t.Errorf("relay republish: %v", err)
			}
			relayed.Add(1)
		},
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: telemetrySchema()},
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: telemetrySchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Bus().Register("sink", "plant", ctx, nil,
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: telemetrySchema()}); err != nil {
		t.Fatal(err)
	}
	for _, ch := range [][2]string{{"sensor.out", "relay.in"}, {"relay.out", "sink.in"}} {
		if err := d.Bus().Connect(PolicyEnginePrincipal, ch[0], ch[1]); err != nil {
			t.Fatal(err)
		}
	}
	d.Log().Flush()

	fault.Arm("audit.sink.stall", fault.Once(fault.Action{Delay: 300 * time.Millisecond}))
	publishTelemetry(t, src, "ann", 1)
	d.EraseData("telemetry", "ann/reading/0", "erasure request")

	if relayed.Load() != 1 {
		t.Fatalf("relay derived %d data, want 1", relayed.Load())
	}
	for _, r := range d.Log().Select(nil) {
		if r.DataID == "ann/derived/0" && !r.Redacted {
			t.Fatalf("derived record %d survived erasure of its source", r.Seq)
		}
	}
}
