package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/ac"
	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/core"
	"lciot/internal/ctxmodel"
	"lciot/internal/device"
	"lciot/internal/gateway"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/store"
)

// This file builds the edge deployment two workloads share: gateways
// fronting simulated devices, analyser sinks, and the message generator
// and reference model over them. ward_pipeline adds CEP patterns and a
// 1000-rule policy; durable_evidence adds a pre-loaded durable store.

// Frozen reference rates (msg/s). They were set at roughly 40 % of the
// closed-loop capacity measured on the seed commit (see README.md) and are
// never calibrated at run time.
const (
	wardRefRate    = 12000
	durableRefRate = 10000
	// Nominal saturation throughputs: they only size the closed-loop
	// phases' fixed message counts.
	wardSatRate    = 60000
	durableSatRate = 50000
)

// Latency limit on deliver_p99_us for local (single-domain) delivery.
const localLimitUs = 1000

// crossLimit is the value above which a reading crosses its threshold.
const crossLimit = 100.0

const opsPrincipal ifc.PrincipalID = "ops"

var metricNames = [4]string{"hr", "spo2", "temp", "resp"}

var labSchema = msg.MustSchema("labresult", ifc.MustLabel("genetic"),
	msg.Field{Name: "patient", Type: msg.TString, Required: true},
	msg.Field{Name: "seq", Type: msg.TInt, Required: true},
)

// openACL lets the benchmark's operator principal reconfigure anything.
func openACL() *ac.ACL {
	var a ac.ACL
	a.DefineRole(ac.Role{Name: "any", Grants: []ac.Permission{{Action: "*", Resource: "**"}}})
	if err := a.Assign(ac.Assignment{Principal: opsPrincipal, Role: "any", Args: map[string]string{}}); err != nil {
		panic(err) // the role was defined on the line above
	}
	return &a
}

type edgeOpts struct {
	name     string
	patterns bool // CEP patterns + policy + FeedEvent in the sink handlers
	durable  bool // DataDir over a pre-loaded store, offload and reads beside the appends
	refRate  float64
	satRate  float64
	// lanes overrides the shard count (0: nproc); the one-lane baseline sets 1.
	lanes int
}

type edgeScale struct {
	gateways, devices, sinks, rules, preload int
}

func edgeScaleFor(cfg *config) edgeScale {
	if cfg.toy {
		return edgeScale{gateways: 8, devices: 4, sinks: 20, rules: 80, preload: 2000}
	}
	return edgeScale{gateways: 64, devices: 32, sinks: 200, rules: 1000, preload: 500000}
}

// Pattern kinds, assigned to sinks round-robin. All three are built so the
// number of detections depends only on how many threshold-crossing readings
// of the watched metric the sink received, not on their order.
const (
	patThreshold = iota // fires on every 3rd crossing
	patAggregate        // max over the window: fires on every crossing
	patSequence         // two crossings in a row: fires on every 2nd
)

type reactSample struct {
	id int64
	at int64
}

// A hitCounter counts sink-handler entries, on a cache line of its own
// because every delivering goroutine bumps it.
type hitCounter struct {
	_     [64]byte
	count atomic.Int64
	_     [64]byte
}

// A sink is one analyser component and the benchmark state at its
// boundary.
type sink struct {
	idx   int
	name  string
	watch string
	kind  int
	hitCounter
	// mu serialises crossing readings through FeedEvent so the OnAlert
	// callback, which runs on the feeding goroutine but receives only the
	// rule's message, can tell which reading it answers.
	mu     sync.Mutex
	cur    int64
	react  []reactSample
	alerts int64
	// crossings is the reference model's count of watched crossings.
	crossings int64
}

// detections is the reference model's detection count for the sink's
// pattern, given the watched crossings it received.
func (sk *sink) detections() int64 {
	switch sk.kind {
	case patThreshold:
		return sk.crossings / 3
	case patSequence:
		return sk.crossings / 2
	}
	return sk.crossings
}

// An edge is one built deployment.
type edge struct {
	cfg  *config
	opts edgeOpts
	sc   edgeScale
	r    *run
	o    *outcome

	dom   *core.Domain
	dir   string
	gws   []*gateway.Gateway
	labs  []*sbus.Component
	sinks []*sink
	fan   [][]int    // gateway → sinks its readings go to
	devID [][]string // gateway → device ids; the last has no consent on record
	altGW []bool     // gateways whose devices alternate two contexts
	ev    *evidence

	tNewDomain, tConnectMany, tPolicy float64
	// flushMs is how long the reference phase's closing Log.Flush took.
	flushMs float64
	// offloadMs/readMs time the maintenance beside a durable run; each is
	// appended to by its own maintenance goroutine only.
	offloadMs, readMs []float64

	// Reference-model totals, accumulated by account().
	expDelivered, expDenied, expRefused, expAdoptions int64
	lastCtxB                                          []bool // per gateway: last accepted reading was context B
	ingestCalls, publishCalls                         atomic.Int64
}

func (w *edge) close() {
	if w.ev != nil {
		w.ev.close()
	}
	if w.dom != nil {
		_ = w.dom.Close() // teardown of a world that is being discarded
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir)
	}
}

func patientTag(g int) ifc.Tag { return ifc.Tag(fmt.Sprintf("pat-%02d", g)) }
func studyTag(g int) ifc.Tag   { return ifc.Tag(fmt.Sprintf("study-%02d", g)) }

func (w *edge) ctxA(g int) ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", patientTag(g)}, nil)
}

func (w *edge) ctxB(g int) ifc.SecurityContext {
	return ifc.MustContext([]ifc.Tag{"medical", patientTag(g), studyTag(g)}, nil)
}

// buildEdge sets the deployment up once. Everything in here is set-up time.
func buildEdge(cfg *config, opts edgeOpts, r *run, o *outcome, attempt int) (*edge, error) {
	w := &edge{cfg: cfg, opts: opts, sc: edgeScaleFor(cfg), r: r, o: o}
	sc := w.sc
	lanes := opts.lanes
	if lanes == 0 {
		lanes = shards()
	}
	domOpts := core.Options{ACL: openACL(), Shards: lanes, OnAlert: w.onAlert}
	if opts.durable {
		dir, err := cfg.dataDir(opts.name, attempt)
		if err != nil {
			return nil, err
		}
		w.dir = dir
		if err := preloadStore(filepath.Join(dir, "audit"), sc.preload); err != nil {
			return nil, fmt.Errorf("pre-load: %w", err)
		}
		domOpts.DataDir = dir
	}
	t0 := time.Now()
	dom, err := core.NewDomain("ward", domOpts)
	if err != nil {
		return nil, err
	}
	w.dom = dom
	w.tNewDomain = time.Since(t0).Seconds()
	bus := dom.Bus()
	dom.Store().Set("lockdown", ctxmodel.Bool(false))

	// Fixed topology: fan-out 1–3 per gateway, sinks drawn by a constant
	// hash so every seed measures the same deployment under different
	// traffic. Three channels in four stay on the gateway's own shard and are
	// delivered inline, on the goroutine that called Ingest; the fourth
	// crosses shards. With the even split a plain hash gives on two shards,
	// the median delivery would sit on the edge between the two paths and
	// flip between them from run to run; and it is the inline path that has
	// the majority because a hand-off is itself two paths — the Go scheduler
	// runs the woken dispatcher either next on the sender's processor or on
	// another one it has to wake, 10 µs apart, and settles on one or the
	// other for a whole run.
	w.fan = make([][]int, sc.gateways)
	feeders := make([][]int, sc.sinks)
	slot := 0
	for g := range w.fan {
		home := bus.ShardOf(fmt.Sprintf("gw-%02d", g))
		for k := 0; len(w.fan[g]) < 1+g%maxFan; k++ {
			s := int(splitmix64(uint64(g*131+k)) % uint64(sc.sinks))
			local := bus.ShardOf(fmt.Sprintf("an-%03d", s)) == home
			// Past a few hundred draws take what comes: with many shards a
			// gateway's own shard may hold no analyser at all.
			if lanes > 1 && local != (slot%4 != 0) && k < 4*sc.sinks {
				continue
			}
			dup := false
			for _, have := range w.fan[g] {
				dup = dup || have == s
			}
			if !dup {
				w.fan[g] = append(w.fan[g], s)
				feeders[s] = append(feeders[s], g)
				slot++
			}
		}
	}

	w.altGW = make([]bool, sc.gateways)
	w.lastCtxB = make([]bool, sc.gateways)
	w.devID = make([][]string, sc.gateways)
	for g := 0; g < sc.gateways; g++ {
		w.altGW[g] = g%16 == 0
		gw, err := gateway.New(bus, fmt.Sprintf("gw-%02d", g), opsPrincipal, w.ctxA(g), 0)
		if err != nil {
			return nil, err
		}
		if w.altGW[g] {
			// The gateway adopts each device's context at ingest; moving
			// between the two needs the privilege over the study tag.
			own := ifc.OwnerPrivileges(studyTag(g))
			if err := gw.Component().Entity().GrantPrivileges(own); err != nil {
				return nil, err
			}
		}
		for d := 0; d <= sc.devices; d++ {
			id := fmt.Sprintf("d-%02d-%02d", g, d)
			ctx := w.ctxA(g)
			if w.altGW[g] && d%2 == 1 {
				ctx = w.ctxB(g)
			}
			gw.AddDevice(gateway.DeviceEntry{DeviceID: id, Ctx: ctx, Consent: d < sc.devices})
			w.devID[g] = append(w.devID[g], id)
		}
		w.gws = append(w.gws, gw)
		lab, err := bus.Register(fmt.Sprintf("lab-%02d", g), opsPrincipal, w.ctxA(g), nil,
			sbus.EndpointSpec{Name: "results", Dir: sbus.Source, Schema: labSchema})
		if err != nil {
			return nil, err
		}
		w.labs = append(w.labs, lab)
	}

	for s := 0; s < sc.sinks; s++ {
		sk := &sink{idx: s, name: fmt.Sprintf("an-%03d", s), watch: metricNames[s%4], kind: (s / 4) % 3}
		tags := []ifc.Tag{"medical"}
		for _, g := range feeders[s] {
			tags = append(tags, patientTag(g))
			if w.altGW[g] {
				tags = append(tags, studyTag(g))
			}
		}
		if _, err := bus.Register(sk.name, opsPrincipal, ifc.MustContext(tags, nil), w.handler(sk),
			sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: gateway.ReadingSchema},
			sbus.EndpointSpec{Name: "lab", Dir: sbus.Sink, Schema: labSchema}); err != nil {
			return nil, err
		}
		w.sinks = append(w.sinks, sk)
	}

	var pairs [][2]string
	for g, sinks := range w.fan {
		for _, s := range sinks {
			pairs = append(pairs, [2]string{fmt.Sprintf("gw-%02d.readings", g), w.sinks[s].name + ".in"})
		}
		// The lab feed's type tags exceed every analyser's clearance: each
		// publish on it is a flow the bus must deny and audit.
		pairs = append(pairs, [2]string{fmt.Sprintf("lab-%02d.results", g), w.sinks[sinks[0]].name + ".lab"})
	}
	t0 = time.Now()
	if err := bus.ConnectMany(opsPrincipal, pairs); err != nil {
		return nil, err
	}
	w.tConnectMany = time.Since(t0).Seconds()

	if opts.patterns {
		t0 = time.Now()
		for _, sk := range w.sinks {
			dom.RegisterPattern(w.pattern(sk))
		}
		// One sourceless pattern: it lives in the broadcast set, so every
		// event also crosses the one cross-lane lock. It never arms.
		dom.RegisterPattern(&cep.Absence{
			PatternName: "heartbeat-loss",
			Match:       func(e cep.Event) bool { return e.Type == "heartbeat" },
			Timeout:     time.Hour,
		})
		if err := dom.LoadPolicy(w.policySource()); err != nil {
			return nil, err
		}
		w.tPolicy = time.Since(t0).Seconds()
	}

	var durable func() uint64
	if opts.durable {
		durable = dom.AuditStore().WAL().DurableSeq
	}
	w.ev = newEvidence(r, durable)
	dom.Log().AddSink(w.ev.onRecord)
	return w, nil
}

func (w *edge) pattern(sk *sink) cep.Pattern {
	name := "p-" + strconv.Itoa(sk.idx)
	crossing := func(e cep.Event) bool { return e.Value > crossLimit }
	types, sources := []string{sk.watch}, []string{sk.name}
	// Windows are far longer than any run, so only counts decide.
	switch sk.kind {
	case patThreshold:
		return &cep.Threshold{PatternName: name, Types: types, Sources: sources,
			Match: crossing, Count: 3, Window: time.Hour}
	case patAggregate:
		return &cep.Aggregate{PatternName: name, Types: types, Sources: sources,
			Match: func(e cep.Event) bool { return e.Source == sk.name },
			Kind:  cep.AggMax, Window: time.Hour, Limit: crossLimit, Above: true, MinCount: 1}
	default:
		return &cep.Sequence{PatternName: name, Types: types, Sources: sources,
			Steps: []func(cep.Event) bool{crossing, crossing}, Window: time.Hour}
	}
}

// alertsPerDetection is how many of a pattern's three hot rules fire: the
// third is guarded by a context attribute that stays false.
const alertsPerDetection = 2

func (w *edge) policySource() string {
	var b strings.Builder
	n := 0
	for _, sk := range w.sinks {
		if n+3 > w.sc.rules {
			break
		}
		i := sk.idx
		fmt.Fprintf(&b, "rule \"a-%d\" priority 3 { on event \"p-%d\" do alert \"A%d\" }\n", i, i, i)
		fmt.Fprintf(&b, "rule \"b-%d\" priority 2 { on event \"p-%d\" when event.value >= 0 do alert \"B%d\" }\n", i, i, i)
		fmt.Fprintf(&b, "rule \"c-%d\" priority 1 { on event \"p-%d\" when ctx.lockdown do alert \"C%d\" }\n", i, i, i)
		n += 3
	}
	for ; n < w.sc.rules; n++ {
		fmt.Fprintf(&b, "rule \"cold-%d\" { on event \"cold-%d\" when event.value > 1000 do alert \"x\" }\n", n, n)
	}
	return b.String()
}

// handler is the analyser's sink handler: the delivery boundary.
func (w *edge) handler(sk *sink) sbus.Handler {
	return func(m *msg.Message, _ sbus.Delivery) {
		t := now()
		id := m.Attrs["seq"].Int
		sk.count.Add(1)
		w.r.hit(id, t)
		p, i, ok := w.r.split(id)
		traced := ok && p.traced
		if !w.opts.patterns || !ok {
			if traced {
				w.r.tr.add(span{id: id, kind: spSink, parent: spIngest, start: t, end: now(), lane: int32(sk.idx)})
			}
			return
		}
		v := m.Attrs["value"].Float
		ev := cep.Event{Type: m.Attrs["metric"].Str, Source: sk.name, Value: v,
			Time: epoch.Add(time.Duration(p.due(i)))}
		f0 := now()
		if v > crossLimit {
			sk.mu.Lock()
			sk.cur = id
			w.dom.FeedEvent(ev)
			sk.mu.Unlock()
		} else {
			w.dom.FeedEvent(ev)
		}
		if traced {
			f1 := now()
			w.r.tr.add(span{id: id, kind: spFeed, parent: spSink, start: f0, end: f1, lane: int32(sk.idx)})
			w.r.tr.add(span{id: id, kind: spSink, parent: spIngest, start: t, end: f1, lane: int32(sk.idx)})
		}
	}
}

// onAlert is the domain's OnAlert callback: the policy-action boundary. It
// runs on the goroutine that fed the completing event, inside that sink's
// critical section.
func (w *edge) onAlert(message string) {
	t := now()
	if len(message) < 2 {
		return
	}
	s, err := strconv.Atoi(message[1:])
	if err != nil || s >= len(w.sinks) {
		return
	}
	sk := w.sinks[s]
	sk.alerts++
	if message[0] != 'A' {
		return
	}
	sk.react = append(sk.react, reactSample{id: sk.cur, at: t})
	if p, _, ok := w.r.split(sk.cur); ok && p.traced {
		w.r.tr.add(span{id: sk.cur, kind: spAlert, parent: spFeed, start: t, end: t, lane: int32(s)})
	}
}

// Message kinds.
const (
	kindReading = iota
	kindIllegal // published on the lab feed: must be denied and audited
	kindRefused // from the device with no consent on record: gateway must refuse
)

type edgeMsg struct {
	gw, dev int
	kind    int
	value   float64
}

// spec is message i of phase p, a pure function of the seed. Gateway g is
// only ever driven by generator g mod gens, so each gateway sees its
// readings in index order and context adoption is deterministic.
func (w *edge) spec(p *phase, i int) edgeMsg {
	h := splitmix64(splitmix64(w.cfg.seed+uint64(p.idx)) + uint64(i))
	gens := w.r.gens
	m := edgeMsg{
		gw:    int(h>>8%uint64(w.sc.gateways/gens))*gens + i%gens,
		dev:   int(h >> 24 % uint64(w.sc.devices)),
		value: 60 + float64(h>>52%30),
	}
	switch c := h >> 32 % 1000; {
	case c < 50:
		m.kind = kindIllegal
	case c < 54:
		m.kind = kindRefused
		m.dev = w.sc.devices
	}
	if h>>44%100 == 0 {
		m.value = 130 + float64(h>>52%20)
	}
	return m
}

func (w *edge) send(p *phase, g int, id int64, i int) {
	m := w.spec(p, i)
	if m.kind == kindIllegal {
		lm := msg.New("labresult").Set("patient", msg.Str(w.devID[m.gw][m.dev])).Set("seq", msg.Int(id))
		lm.DataID = "lab/" + strconv.Itoa(m.gw) + "/" + strconv.FormatInt(id, 10)
		t0 := now()
		_, err := w.labs[m.gw].Publish("results", lm)
		if p.traced {
			w.r.tr.add(span{id: id, kind: spPublish, parent: spGen, start: t0, end: now(), lane: int32(g)})
		}
		w.publishCalls.Add(1)
		if err != nil {
			w.o.fail(1, "lab publish %d: %v", i, err)
		}
		return
	}
	rd := device.Reading{DeviceID: w.devID[m.gw][m.dev], Metric: metricNames[m.dev%4], Value: m.value, Seq: uint64(id)}
	t0 := now()
	err := w.gws[m.gw].Ingest(rd)
	if p.traced {
		w.r.tr.add(span{id: id, kind: spIngest, parent: spGen, start: t0, end: now(), lane: int32(g)})
	}
	w.ingestCalls.Add(1)
	if (err != nil) != (m.kind == kindRefused) {
		w.o.fail(1, "ingest %d (kind %d): %v", i, m.kind, err)
	}
}

// account walks the messages phase p sent through the reference model:
// expected deliveries per message (kept for the exact per-message check on
// open-loop phases), denials, refusals, context adoptions and watched
// crossings per sink.
func (w *edge) account(p *phase) {
	flipped := false
	w.r.forEachSent(p, func(i int) {
		m := w.spec(p, i)
		want := 0
		switch m.kind {
		case kindIllegal:
			w.expDenied++
		case kindRefused:
			w.expRefused++
		default:
			want = len(w.fan[m.gw])
			if w.altGW[m.gw] {
				ctxB := m.dev%2 == 1
				if ctxB != w.lastCtxB[m.gw] {
					w.expAdoptions++
					w.lastCtxB[m.gw] = ctxB
				}
			}
			if m.value > crossLimit {
				for _, s := range w.fan[m.gw] {
					if w.sinks[s].watch == metricNames[m.dev%4] {
						w.sinks[s].crossings++
					}
				}
			}
		}
		if w.cfg.flip && !flipped && p.measured && m.kind == kindReading {
			want, flipped = 0, true // the smoke test's inverted verdict
		}
		w.expDelivered += int64(want)
		if p.open() {
			p.want[i] = uint8(want)
		}
	})
	w.o.attempted += int64(p.total())
}

func (w *edge) delivered() int64 {
	var n int64
	for _, sk := range w.sinks {
		n += sk.count.Load()
	}
	return n
}

// drain waits until everything sent so far is delivered, in the chain and,
// with a store, durable. Sends have returned by now, so cross-shard
// handoffs are the only deliveries still in flight, and the model's running
// total says how many to wait for.
func (w *edge) drain(p *phase) {
	t0 := now()
	w.account(p)
	modelNs := now() - t0
	awaitDeliveries(w.o, p, w.delivered, w.expDelivered)
	t0 = now()
	w.dom.Log().Flush()
	if p.measured {
		w.flushMs = float64(now()-t0) / 1e6
	}
	if w.opts.durable {
		w.ev.awaitDurable(w.o, p, w.dom.AuditStore())
	}
	p.end = now() - modelNs // the model pass is the benchmark's work, not the program's
	p.checkSeen(w.o)
}

// verify runs the post-run oracle: totals against the reference model and
// the chain checks.
func (w *edge) verify() {
	o := w.o
	check := o.check
	check("deliveries", w.delivered(), w.expDelivered)
	check("flow-allowed records", w.ev.allowed.Load(), w.expDelivered)
	check("flow-denied records", w.ev.denied.Load(), w.expDenied+w.expRefused)
	check("gateway refusals", w.ev.refused.Load(), w.expRefused)
	var reevals uint64
	for _, st := range w.dom.Bus().ShardStats() {
		reevals += st.Reevaluations
	}
	check("context adoptions", int64(reevals), w.expAdoptions)
	if w.opts.patterns {
		var alerts, want int64
		for _, sk := range w.sinks {
			alerts += sk.alerts
			want += sk.detections() * alertsPerDetection
		}
		check("alerts", alerts, want)
		var fired uint64
		for _, f := range w.dom.PolicyEngine().LaneFirings() {
			fired += f
		}
		check("rule firings", int64(fired), want)
		check("policy errors", w.ev.policyErrors.Load(), 0)
	}
	o.attempted++
	t0 := time.Now()
	if bad, err := w.dom.Log().Verify(); err != nil {
		o.fail(1, "in-memory chain broken at %d: %v", bad, err)
	}
	o.res.set("audit.verify_s", since(t0))
	if w.opts.durable {
		o.attempted++
		if err := w.dom.AuditStore().VerifyAgainst(w.dom.Log()); err != nil {
			o.fail(1, "memory/disk chain boundary: %v", err)
		}
	}
}

// preloadStore fills a fresh audit store with n chained records, as a
// deployment that has been running for a while would have.
func preloadStore(dir string, n int) error {
	s, err := store.OpenAudit(dir, store.Options{NoSync: true})
	if err != nil {
		return err
	}
	log := audit.NewLog(nil)
	if err := s.AttachLog(log); err != nil {
		s.Close()
		return err
	}
	ctx := ifc.MustContext([]ifc.Tag{"medical", "pat-00"}, nil)
	for i := 0; i < n; i++ {
		log.AppendAsync(audit.Record{
			Kind: audit.FlowAllowed, Layer: audit.LayerMessaging, Domain: "ward",
			Src: "ward:gw-00", Dst: "ward:an-000", SrcCtx: ctx, DstCtx: ctx,
			DataID: "old/hr/" + strconv.Itoa(i), Agent: opsPrincipal, Note: "delivered",
		})
	}
	log.Flush()
	if err := s.Sync(); err != nil {
		s.Close()
		return err
	}
	return s.Close()
}
