package gateway

import (
	"errors"
	"sync"
	"testing"
	"time"

	"lciot/internal/ac"
	"lciot/internal/audit"
	"lciot/internal/device"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
)

func openACL() *ac.ACL {
	var a ac.ACL
	a.DefineRole(ac.Role{Name: "any", Grants: []ac.Permission{{Action: "*", Resource: "**"}}})
	_ = a.Assign(ac.Assignment{Principal: "hospital", Role: "any", Args: map[string]string{}})
	return &a
}

type recorder struct {
	mu   sync.Mutex
	msgs []*msg.Message
}

func (r *recorder) handler() sbus.Handler {
	return func(m *msg.Message, _ sbus.Delivery) {
		r.mu.Lock()
		defer r.mu.Unlock()
		r.msgs = append(r.msgs, m)
	}
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func annDeviceCtx() ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil)
}

// newTestGateway wires gateway -> analyser on one bus, with the gateway
// holding owner privileges over the tags it mediates.
func newTestGateway(t *testing.T) (*Gateway, *recorder, *sbus.Bus) {
	t.Helper()
	bus := sbus.NewShardedBus("home", 1, openACL(), nil, nil)
	gw, err := New(bus, "gw", "hospital", annDeviceCtx(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// The domain authority grants the gateway the right to move between the
	// contexts of the devices it fronts.
	if err := gw.Component().Entity().GrantPrivileges(ifc.OwnerPrivileges("medical", "ann", "zeb")); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	if _, err := bus.Register("analyser", "hospital", annDeviceCtx(), rec.handler(),
		sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: ReadingSchema}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Connect("hospital", "gw.readings", "analyser.in"); err != nil {
		t.Fatal(err)
	}
	gw.AddDevice(DeviceEntry{DeviceID: "ann-sensor", Ctx: annDeviceCtx(), Consent: true})
	return gw, rec, bus
}

func reading(dev string, seq uint64) device.Reading {
	return device.Reading{DeviceID: dev, Metric: "heart-rate", Value: 72, Seq: seq, At: time.Unix(0, 0)}
}

func TestIngestForwardsLabelledReading(t *testing.T) {
	gw, rec, _ := newTestGateway(t)
	if err := gw.Ingest(reading("ann-sensor", 0)); err != nil {
		t.Fatal(err)
	}
	if rec.count() != 1 {
		t.Fatalf("deliveries = %d", rec.count())
	}
	rec.mu.Lock()
	m := rec.msgs[0]
	rec.mu.Unlock()
	if v, _ := m.Get("device"); v.Str != "ann-sensor" {
		t.Fatalf("message = %v", m)
	}
	if m.DataID != "ann-sensor/heart-rate/0" {
		t.Fatalf("DataID = %q", m.DataID)
	}
}

func TestIngestRefusesUnknownDevice(t *testing.T) {
	gw, rec, bus := newTestGateway(t)
	if err := gw.Ingest(reading("rogue", 0)); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("unknown device = %v", err)
	}
	if rec.count() != 0 {
		t.Fatal("rogue reading forwarded")
	}
	denials := bus.Log().Select(func(r audit.Record) bool { return r.Kind == audit.FlowDenied })
	if len(denials) != 1 {
		t.Fatalf("denials = %d", len(denials))
	}
}

func TestIngestRequiresConsent(t *testing.T) {
	gw, rec, _ := newTestGateway(t)
	gw.AddDevice(DeviceEntry{DeviceID: "no-consent", Ctx: annDeviceCtx(), Consent: false})
	if err := gw.Ingest(reading("no-consent", 0)); err == nil {
		t.Fatal("consentless reading accepted")
	}
	if rec.count() != 0 {
		t.Fatal("consentless reading forwarded")
	}
}

func TestRemoveDevice(t *testing.T) {
	gw, _, _ := newTestGateway(t)
	gw.RemoveDevice("ann-sensor")
	if err := gw.Ingest(reading("ann-sensor", 1)); !errors.Is(err, ErrUnknownDevice) {
		t.Fatalf("removed device = %v", err)
	}
}

func TestStoreAndForward(t *testing.T) {
	gw, rec, _ := newTestGateway(t)
	gw.SetUplink(false)
	for i := uint64(0); i < 3; i++ {
		if err := gw.Ingest(reading("ann-sensor", i)); err != nil {
			t.Fatal(err)
		}
	}
	if rec.count() != 0 {
		t.Fatal("delivered while uplink down")
	}
	if gw.Buffered() != 3 {
		t.Fatalf("buffered = %d", gw.Buffered())
	}

	gw.SetUplink(true)
	n, err := gw.Flush()
	if err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	if rec.count() != 3 {
		t.Fatalf("deliveries after flush = %d", rec.count())
	}
	// In-order delivery.
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, m := range rec.msgs {
		if v, _ := m.Get("seq"); v.Int != int64(i) {
			t.Fatalf("out of order: msg %d has seq %d", i, v.Int)
		}
	}
}

func TestBufferOverflow(t *testing.T) {
	gw, _, _ := newTestGateway(t)
	gw.SetUplink(false)
	for i := uint64(0); i < 4; i++ {
		if err := gw.Ingest(reading("ann-sensor", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Ingest(reading("ann-sensor", 99)); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("overflow = %v", err)
	}
}

func TestFlushStopsOnForwardError(t *testing.T) {
	gw, _, _ := newTestGateway(t)
	gw.SetUplink(false)
	// Two readings from Ann, then one from a device whose context the
	// gateway has no privileges for: the forward of that reading fails.
	locked := ifc.MustContext([]ifc.Tag{"locked-domain"}, nil)
	gw.AddDevice(DeviceEntry{DeviceID: "locked-sensor", Ctx: locked, Consent: true})
	if err := gw.Ingest(reading("ann-sensor", 0)); err != nil {
		t.Fatal(err)
	}
	if err := gw.Ingest(device.Reading{DeviceID: "locked-sensor", Metric: "m", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := gw.Ingest(reading("ann-sensor", 2)); err != nil {
		t.Fatal(err)
	}
	gw.SetUplink(true)
	n, err := gw.Flush()
	if err == nil {
		t.Fatal("flush should fail on the unprivileged context switch")
	}
	if n != 1 {
		t.Fatalf("forwarded %d before failing, want 1", n)
	}
	// The failed reading and its successor remain buffered, in order.
	if gw.Buffered() != 2 {
		t.Fatalf("buffered = %d, want 2", gw.Buffered())
	}
}

func TestGatewayRegisterNameCollision(t *testing.T) {
	bus := sbus.NewShardedBus("b", 1, openACL(), nil, nil)
	if _, err := New(bus, "gw", "hospital", annDeviceCtx(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := New(bus, "gw", "hospital", annDeviceCtx(), 0); err == nil {
		t.Fatal("duplicate gateway name accepted")
	}
}

func TestGatewayAdoptsDeviceContext(t *testing.T) {
	gw, _, bus := newTestGateway(t)
	zebCtx := ifc.MustContext([]ifc.Tag{"medical", "zeb"}, nil)
	gw.AddDevice(DeviceEntry{DeviceID: "zeb-sensor", Ctx: zebCtx, Consent: true})

	// Forwarding Zeb's reading forces the gateway into Zeb's context; the
	// channel to Ann's analyser becomes illegal and is torn down, so the
	// reading is not delivered there.
	if err := gw.Ingest(reading("zeb-sensor", 0)); err != nil {
		t.Fatal(err)
	}
	if !gw.Component().Context().Equal(zebCtx) {
		t.Fatalf("gateway context = %v", gw.Component().Context())
	}
	if got := len(bus.Channels()); got != 0 {
		t.Fatalf("channels after context switch = %d", got)
	}
}

// TestJournalSurvivesRestart simulates a gateway process dying while the
// uplink is down: the buffered readings live in the journal, and a new
// gateway over the same directory recovers and forwards them in order.
func TestJournalSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	gw, rec, _ := newTestGateway(t)
	if n, err := gw.EnableJournal(dir); err != nil || n != 0 {
		t.Fatalf("EnableJournal = %d, %v", n, err)
	}
	gw.SetUplink(false)
	for i := uint64(0); i < 3; i++ {
		if err := gw.Ingest(reading("ann-sensor", i)); err != nil {
			t.Fatal(err)
		}
	}
	if rec.count() != 0 {
		t.Fatal("delivered while uplink down")
	}
	// The process dies without flushing: no Close, no Flush. The journal
	// was synced on every buffered ingest, so nothing is lost.

	gw2, rec2, _ := newTestGateway(t)
	n, err := gw2.EnableJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("recovered %d readings, want 3", n)
	}
	if gw2.Buffered() != 3 {
		t.Fatalf("buffered after recovery = %d", gw2.Buffered())
	}
	if fn, err := gw2.Flush(); err != nil || fn != 3 {
		t.Fatalf("Flush = %d, %v", fn, err)
	}
	if rec2.count() != 3 {
		t.Fatalf("deliveries after recovery = %d", rec2.count())
	}
	rec2.mu.Lock()
	for i, m := range rec2.msgs {
		if v, _ := m.Get("seq"); v.Int != int64(i) {
			t.Fatalf("out of order after recovery: msg %d has seq %d", i, v.Int)
		}
		if m.DataID == "" {
			t.Fatal("recovered reading lost its DataID")
		}
	}
	rec2.mu.Unlock()
	if err := gw2.CloseJournal(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalPruneAfterFlush checks that a full flush prunes delivered
// readings so they are not re-forwarded by the next recovery.
func TestJournalPruneAfterFlush(t *testing.T) {
	dir := t.TempDir()
	gw, _, _ := newTestGateway(t)
	if _, err := gw.EnableJournal(dir); err != nil {
		t.Fatal(err)
	}
	gw.SetUplink(false)
	for i := uint64(0); i < 3; i++ {
		if err := gw.Ingest(reading("ann-sensor", i)); err != nil {
			t.Fatal(err)
		}
	}
	gw.SetUplink(true)
	if n, err := gw.Flush(); err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	if err := gw.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	// Prune is segment-granular, so recovery may legitimately re-buffer a
	// suffix of delivered readings (at-least-once) — but after a full
	// flush with the default small segments nothing should remain.
	gw2, _, _ := newTestGateway(t)
	n, err := gw2.EnableJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("recovered %d readings after clean flush, want 0", n)
	}
}
