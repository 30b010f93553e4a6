package core

import (
	"testing"
	"time"

	"lciot/internal/cep"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/telemetry"
)

// stageArmed enables telemetry recording and every-publish trace sampling
// (which arms each publish's stage clock) for one test, restoring both
// afterwards.
func stageArmed(t *testing.T) {
	t.Helper()
	prev := telemetry.Enabled()
	telemetry.Enable()
	telemetry.SetTraceSampling(1)
	t.Cleanup(func() {
		telemetry.SetTraceSampling(0)
		if !prev {
			telemetry.Disable()
		}
	})
}

// stageEdgeStats reads the current (sum, count) of every local stage-edge
// histogram from the default registry.
func stageEdgeStats(t *testing.T) (map[string]uint64, map[string]uint64) {
	t.Helper()
	sums := map[string]uint64{}
	counts := map[string]uint64{}
	snap := telemetry.Snapshot()
	for _, name := range telemetry.StageEdges() {
		if m, ok := telemetry.Find(snap, name); ok && m.Hist != nil {
			sums[name] = m.Hist.Sum
			counts[name] = m.Hist.Count
		}
	}
	return sums, counts
}

// TestStageClockTelescopesAcrossRelay pins the stage clock's core
// arithmetic property on a two-hop pipeline: device → relay (sink that
// republishes) → collector (sink that feeds CEP) → detection → policy →
// audit commit. Every edge observation is a telescoping difference off
// one shared clock, so the per-edge histogram sums must add up EXACTLY to
// the clock's last hop minus its arm time — the hop latencies sum to the
// end-to-end latency, no gaps and no double counting.
func TestStageClockTelescopesAcrossRelay(t *testing.T) {
	stageArmed(t)
	clock := newTestClock()
	d := newDomain(t, clock)
	defer d.Close()

	d.RegisterPattern(&cep.Threshold{
		PatternName: "relay-seen",
		Sources:     []string{"relay-probe"},
		Count:       1, Window: time.Minute,
	})
	if err := d.LoadPolicy(`rule "relay-react" { on event "relay-seen" do alert "relayed" }`); err != nil {
		t.Fatal(err)
	}

	dev, err := d.Bus().Register("dev", "hospital", annCtx(), nil,
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	// The relay republishes each delivered message on its own source
	// endpoint; publish keeps an already-armed clock, so the second hop's
	// deliver mark lands on the same clock as the first.
	var relay *sbus.Component
	relay, err = d.Bus().Register("relay", "hospital", annCtx(),
		func(m *msg.Message, _ sbus.Delivery) {
			if _, err := relay.Publish("out", m); err != nil {
				t.Errorf("relay republish: %v", err)
			}
		},
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema()},
		sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	// The collector keeps the clock it was delivered: publish stamps the
	// trace on the copy it delivers, not on the publisher's message.
	var clk *telemetry.StageClock
	if _, err := d.Bus().Register("collector", "hospital", annCtx(),
		func(m *msg.Message, _ sbus.Delivery) {
			clk = m.Trace.Clock
			d.FeedEvent(cep.Event{
				Type: "vitals", Source: "relay-probe",
				Time: clock.Now(), Value: 1, Stage: m.Trace.Clock,
			})
		},
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if err := d.Bus().Connect(PolicyEnginePrincipal, "dev.out", "relay.in"); err != nil {
		t.Fatal(err)
	}
	if err := d.Bus().Connect(PolicyEnginePrincipal, "relay.out", "collector.in"); err != nil {
		t.Fatal(err)
	}

	sumsBefore, countsBefore := stageEdgeStats(t)

	m := msg.New("vitals").Set("patient", msg.Str("ann")).Set("heart-rate", msg.Float(72))
	if _, err := dev.Publish("out", m); err != nil {
		t.Fatal(err)
	}
	if clk == nil {
		t.Fatal("publish at trace sampling 1 delivered no clock")
	}
	if !m.Trace.IsZero() {
		t.Fatalf("publish stamped trace %+v on the publisher's message", m.Trace)
	}
	// Single-shard delivery runs inline, so detection and the policy
	// decision happened inside Publish; only the audit commit is async.
	if alerts := d.Alerts(); len(alerts) != 1 || alerts[0] != "relayed" {
		t.Fatalf("alerts = %v, want [relayed]", alerts)
	}
	d.Log().Flush() // the drain marks decide→audit before advancing the watermark

	sumsAfter, countsAfter := stageEdgeStats(t)
	// Two deliver hops (relay, collector), one detect, one decide, and two
	// audit commits (each delivery record carries the clock).
	wantCounts := map[string]uint64{
		"stage_publish_deliver_ns": 2,
		"stage_deliver_detect_ns":  1,
		"stage_detect_decide_ns":   1,
		"stage_decide_audit_ns":    2,
	}
	var total uint64
	for _, name := range telemetry.StageEdges() {
		if got := countsAfter[name] - countsBefore[name]; got != wantCounts[name] {
			t.Errorf("%s observations = %d, want %d", name, got, wantCounts[name])
		}
		total += sumsAfter[name] - sumsBefore[name]
	}
	want := uint64(clk.LastNs() - clk.ArmNs())
	if total != want {
		t.Fatalf("edge sums total %dns, want exactly end-to-end %dns (last-arm)", total, want)
	}
	if want == 0 {
		t.Fatal("end-to-end latency is zero; the clock never advanced")
	}
}

// TestStageSamplingDark pins the disabled default: with trace sampling
// off, publishes carry no trace and no clock, and the stage histograms
// stay silent.
func TestStageSamplingDark(t *testing.T) {
	prev := telemetry.Enabled()
	telemetry.Enable()
	t.Cleanup(func() {
		if !prev {
			telemetry.Disable()
		}
	})
	if got := telemetry.TraceSampling(); got != 0 {
		t.Fatalf("default trace sampling = %d, want 0", got)
	}
	clock := newTestClock()
	d, src := obligationDomain(t, t.TempDir(), clock)
	defer d.Close()
	_, before := stageEdgeStats(t)
	publishTelemetry(t, src, "dark-dev", 10)
	m := msg.New("telemetry").Set("device", msg.Str("dark-dev")).Set("value", msg.Float(1))
	if _, err := src.Publish("out", m); err != nil {
		t.Fatal(err)
	}
	if !m.Trace.IsZero() || m.Trace.Clock != nil {
		t.Fatalf("unsampled publish carries trace %+v", m.Trace)
	}
	d.Log().Flush()
	_, after := stageEdgeStats(t)
	for _, name := range telemetry.StageEdges() {
		if after[name] != before[name] {
			t.Fatalf("%s observed %d new values with sampling off", name, after[name]-before[name])
		}
	}
}
