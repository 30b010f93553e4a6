package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/audit"
	"lciot/internal/core"
	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/store"
	"lciot/internal/telemetry"
)

// reconfig_compliance: a sharded, durable domain with thousands of
// components and channels carries a background publish stream while the
// control plane works beside it on fixed schedules — context changes that
// drive policy rules into setcontext/connect/disconnect (each checked by a
// probe publish), erasure requests, provenance queries, obligation sweeps
// with a retention short enough to expire mid-run, and policy hot reloads.
// The routing snapshots, audit chain and store serve writes beside reads.

const (
	reconfigRefRate = 1200 // a tenth of ward_pipeline's
	reconfigSatRate = 80000
	ctxChangeRate   = 40 // context changes per second
	eraseRate       = 2  // EraseData requests per second
	ancestryRate    = 20 // provenance queries per second
	retention       = 5 * time.Second
	reloadEvery     = 5 * time.Second
)

type reconfigScale struct {
	components, fanout, subjects, zones int
}

func reconfigScaleFor(cfg *config) reconfigScale {
	if cfg.toy {
		return reconfigScale{components: 200, fanout: 5, subjects: 40, zones: 8}
	}
	// The issue asks for 20 000 components / 100 000 channels. On the seed
	// commit registering that many takes 6 s (registration clones a shard's
	// routing snapshot per component) and one connect 26 ms, which neither
	// repeated set-up nor 40 context changes a second leave room for; the
	// topology is a quarter of that.
	return reconfigScale{components: 5000, fanout: 5, subjects: 1000, zones: 64}
}

var telemetrySchema = msg.MustSchema("telemetry", ifc.EmptyLabel,
	msg.Field{Name: "subject", Type: msg.TString, Required: true},
	msg.Field{Name: "value", Type: msg.TFloat, Required: true},
	msg.Field{Name: "seq", Type: msg.TInt, Required: true},
)

type zone struct {
	src     *sbus.Component
	srcName string
	dstName string
	key     string
	open    bool
	// seenID/seenAt are the last probe the zone's sink handler received.
	seenID atomic.Int64
	seenAt atomic.Int64
}

type reconfig struct {
	cfg *config
	sc  reconfigScale
	r   *run
	o   *outcome

	dom      *core.Domain
	dir      string
	subjects []*sbus.Component
	vaults   []*hitCounter
	zones    []*zone
	policy   string
	ev       *evidence

	tNewDomain, tConnectMany float64
	loadMs                   []float64

	expDelivered int64
	publishCalls atomic.Int64

	// Control-plane samples, each written by the one goroutine that runs
	// that operation.
	mu          sync.Mutex
	reconfigNs  []float64
	ctxChangeNs []float64
	eraseNs     []float64
	ancestryNs  []float64
	sweepNs     []float64
	offloadNs   []float64
	healthNs    []float64
	swept       int64
	erasures    []string // data ids erased on request
	probes      atomic.Int64
	backlogMax  float64
	lastSweep   time.Time
}

func (w *reconfig) close() {
	if w.ev != nil {
		w.ev.close()
	}
	if w.dom != nil {
		_ = w.dom.Close() // teardown of a world that is being discarded
	}
}

// nameOnShard returns the first name with the given prefix that the bus
// homes on (or off) the wanted shard.
func nameOnShard(bus *sbus.Bus, prefix string, shard int, on bool) string {
	for k := 0; ; k++ {
		name := prefix + strconv.Itoa(k)
		// The draw budget only matters on hosts with very many shards.
		if (bus.ShardOf(name) == shard) == on || bus.NumShards() == 1 || k > 1<<16 {
			return name
		}
	}
}

func buildReconfig(cfg *config, r *run, o *outcome, attempt int) (*reconfig, error) {
	w := &reconfig{cfg: cfg, sc: reconfigScaleFor(cfg), r: r, o: o}
	sc := w.sc
	dir, err := cfg.dataDir("reconfig", attempt)
	if err != nil {
		return nil, err
	}
	w.dir = dir
	t0 := time.Now()
	dom, err := core.NewDomain("site", core.Options{ACL: openACL(), Shards: shards(), DataDir: dir})
	if err != nil {
		return nil, err
	}
	w.dom = dom
	w.tNewDomain = since(t0)
	bus := dom.Bus()
	out := sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: telemetrySchema}
	in := sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: telemetrySchema}
	plain := ifc.MustContext([]ifc.Tag{"medical"}, nil)

	// The standing deployment: components wired in a ring of fan-out 5.
	// They carry no traffic; they are what every routing mutation copies.
	for i := 0; i < sc.components; i++ {
		if _, err := bus.Register(fmt.Sprintf("c-%05d", i), opsPrincipal, plain, nil, out, in); err != nil {
			return nil, err
		}
	}
	var pairs [][2]string
	for i := 0; i < sc.components; i++ {
		for j := 1; j <= sc.fanout; j++ {
			pairs = append(pairs, [2]string{fmt.Sprintf("c-%05d.out", i), fmt.Sprintf("c-%05d.in", (i+j)%sc.components)})
		}
	}

	// Data subjects: each publishes to a vault of its own, so the
	// provenance component an erasure walks is that subject's data and
	// nothing else. Three pairs in four share a shard (see buildEdge).
	pii := ifc.MustContext([]ifc.Tag{"medical", "pii"}, nil)
	for s := 0; s < sc.subjects; s++ {
		name := fmt.Sprintf("subj-%04d", s)
		comp, err := bus.Register(name, opsPrincipal, pii, nil, out)
		if err != nil {
			return nil, err
		}
		vault := nameOnShard(bus, fmt.Sprintf("vault-%04d-", s), bus.ShardOf(name), s%4 != 0)
		sk := &hitCounter{}
		if _, err := bus.Register(vault, opsPrincipal, pii, w.vaultHandler(sk), in); err != nil {
			return nil, err
		}
		w.subjects = append(w.subjects, comp)
		w.vaults = append(w.vaults, sk)
		pairs = append(pairs, [2]string{name + ".out", vault + ".in"})
	}
	t0 = time.Now()
	if err := bus.ConnectMany(opsPrincipal, pairs); err != nil {
		return nil, err
	}
	w.tConnectMany = since(t0)

	// Zones: a context attribute per zone decides, through two policy
	// rules, whether the zone's sink is cleared for medical data and wired
	// to its source. Zones start locked.
	var pol strings.Builder
	for z := 0; z < sc.zones; z++ {
		zn := &zone{srcName: fmt.Sprintf("zsrc-%02d", z), dstName: fmt.Sprintf("zsink-%02d", z), key: fmt.Sprintf("zone_%02d", z)}
		if zn.src, err = bus.Register(zn.srcName, opsPrincipal, plain, nil, out); err != nil {
			return nil, err
		}
		dst, err := bus.Register(zn.dstName, opsPrincipal, ifc.SecurityContext{}, func(m *msg.Message, _ sbus.Delivery) {
			zn.seenAt.Store(now())
			zn.seenID.Store(m.Attrs["seq"].Int)
		}, in)
		if err != nil {
			return nil, err
		}
		if err := dst.Entity().GrantPrivileges(ifc.OwnerPrivileges("medical")); err != nil {
			return nil, err
		}
		w.zones = append(w.zones, zn)
		fmt.Fprintf(&pol, "rule \"open-%02d\" { on context %s when ctx.%s == \"open\" do setcontext %q S={medical} I={}; connect %q -> %q }\n",
			z, zn.key, zn.key, zn.dstName, zn.srcName+".out", zn.dstName+".in")
		fmt.Fprintf(&pol, "rule \"lock-%02d\" { on context %s when ctx.%s == \"locked\" do disconnect %q -> %q; setcontext %q S={} I={} }\n",
			z, zn.key, zn.key, zn.srcName+".out", zn.dstName+".in", zn.dstName)
	}
	fmt.Fprintf(&pol, "obligation \"pii-retention\" on pii { retain %s; }\n", retention)
	w.policy = pol.String()
	if err := w.loadPolicy(); err != nil {
		return nil, err
	}

	w.ev = newEvidence(r, dom.AuditStore().WAL().DurableSeq)
	dom.Log().AddSink(w.ev.onRecord)
	return w, nil
}

func (w *reconfig) loadPolicy() error {
	t0 := time.Now()
	err := w.dom.LoadPolicy(w.policy)
	w.mu.Lock()
	w.loadMs = append(w.loadMs, since(t0)*1e3)
	w.mu.Unlock()
	return err
}

func (w *reconfig) vaultHandler(sk *hitCounter) sbus.Handler {
	return func(m *msg.Message, _ sbus.Delivery) {
		t := now()
		id := m.Attrs["seq"].Int
		sk.count.Add(1)
		w.r.hit(id, t)
		if p, _, ok := w.r.split(id); ok && p.traced {
			w.r.tr.add(span{id: id, kind: spSink, parent: spPublish, start: t, end: now()})
		}
	}
}

// subjectOf is the subject that publishes message i of phase p.
func (w *reconfig) subjectOf(p *phase, i int) int {
	h := splitmix64(splitmix64(w.cfg.seed+uint64(p.idx)) + uint64(i))
	return int(h >> 16 % uint64(len(w.subjects)))
}

func dataIDOf(subject int, id int64) string {
	return "subj-" + strconv.Itoa(subject) + "/t/" + strconv.FormatInt(id, 10)
}

func (w *reconfig) send(p *phase, g int, id int64, i int) {
	s := w.subjectOf(p, i)
	m := msg.New("telemetry").Set("subject", msg.Str(w.subjects[s].Name())).
		Set("value", msg.Float(float64(i%100))).Set("seq", msg.Int(id))
	m.DataID = dataIDOf(s, id)
	t0 := now()
	delivered, err := w.subjects[s].Publish("out", m)
	if p.traced {
		w.r.tr.add(span{id: id, kind: spPublish, parent: spGen, start: t0, end: now(), lane: int32(g)})
	}
	w.publishCalls.Add(1)
	if err != nil || delivered != 1 {
		w.o.fail(1, "%s publish %d: %d deliveries, err %v", p.name, i, delivered, err)
	}
}

func (w *reconfig) delivered() int64 {
	var n int64
	for _, sk := range w.vaults {
		n += sk.count.Load()
	}
	return n
}

func (w *reconfig) drain(p *phase) {
	flipped := false
	for i := 0; p.open() && i < p.n; i++ {
		p.want[i] = 1
		if w.cfg.flip && !flipped && p.measured {
			p.want[i], flipped = 0, true
			w.expDelivered--
		}
	}
	w.expDelivered += int64(p.total())
	w.o.attempted += int64(p.total())
	awaitDeliveries(w.o, p, w.delivered, w.expDelivered)
	w.dom.Log().Flush()
	w.ev.awaitDurable(w.o, p, w.dom.AuditStore())
	p.end = now()
	p.checkSeen(w.o)
}

// paced runs fn on a fixed schedule (call k due at start + k/rate) from its
// own goroutine until stopped; like the generators it never runs early and
// never spins.
func paced(rate float64, fn func(k int)) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		pace := newPacer()
		defer pace.close()
		t0 := now()
		for k := 0; ; k++ {
			due := t0 + int64(float64(k)*1e9/rate)
			for t := now(); t < due; t = now() {
				// Sleep in slices so a stop request is seen promptly.
				pace.sleep(min(due-t, int64(20*time.Millisecond)))
				select {
				case <-quit:
					return
				default:
				}
			}
			select {
			case <-quit:
				return
			default:
			}
			fn(k)
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func (w *reconfig) sample(dst *[]float64, v float64) {
	w.mu.Lock()
	*dst = append(*dst, v)
	w.mu.Unlock()
}

// changeContext flips one zone's context attribute and probes that the new
// verdict is in force: after "open" a publish from the zone's source must
// reach its sink, after "locked" it must reach nobody.
func (w *reconfig) changeContext(k int) {
	zn := w.zones[k%len(w.zones)]
	zn.open = !zn.open
	state := "locked"
	if zn.open {
		state = "open"
	}
	probeID := w.probes.Add(1) // below 1<<idShift: never mistaken for a phase message
	t0 := now()
	w.dom.Store().Set(zn.key, ctxmodel.String(state))
	t1 := now()
	m := msg.New("telemetry").Set("subject", msg.Str(zn.srcName)).Set("value", msg.Float(1)).Set("seq", msg.Int(probeID))
	delivered, err := zn.src.Publish("out", m)
	end := now()
	w.o.mu.Lock()
	w.o.attempted++
	w.o.mu.Unlock()
	switch {
	case err != nil:
		w.o.fail(1, "zone %s probe: %v", zn.key, err)
	case zn.open:
		if delivered != 1 || !waitUntil(5*time.Second, func() bool { return zn.seenID.Load() == probeID }) {
			w.o.fail(1, "zone %s opened but its probe was not delivered (%d deliveries)", zn.key, delivered)
			return
		}
		end = zn.seenAt.Load()
	case delivered != 0:
		w.o.fail(1, "zone %s locked but its probe was delivered", zn.key)
	}
	w.sample(&w.ctxChangeNs, float64(t1-t0))
	w.sample(&w.reconfigNs, float64(end-t0))
	w.r.tr.add(span{id: probeID, kind: spControl, start: t0, end: end, lane: 0})
}

// recent picks a message of phase p that was due about age ago and returns
// its data id; ok is false until the phase is that old.
func (w *reconfig) recent(p *phase, age time.Duration) (string, bool) {
	if !p.open() {
		return "", false
	}
	i := int(float64(now()-int64(age)-p.t0) / p.interval)
	if i < 0 || i >= p.n {
		return "", false
	}
	return dataIDOf(w.subjectOf(p, i), p.msgID(i)), true
}

// beside starts the control plane for one phase. Context changes and
// offloads run beside every phase. Sweeps, reloads, erasures and provenance
// queries run beside the open-loop phases only: a sweep's cost grows with
// the backlog the saturation phase itself creates, which would make
// capacity a measure of how many sweeps happened to land inside the phase.
func (w *reconfig) beside(p *phase) (stop func()) {
	speed := w.cfg.speed()
	stops := []func(){
		paced(ctxChangeRate*speed, w.changeContext),
		paced(speed, func(k int) {
			if k%2 == 0 {
				return // offload on the odd seconds of every phase
			}
			t0 := now()
			if _, err := w.dom.OffloadAudit(); err != nil {
				w.o.fail(1, "offload: %v", err)
			}
			w.sample(&w.offloadNs, float64(now()-t0))
		}),
	}
	if p.open() {
		stops = append(stops,
			paced(speed, func(int) {
				t0, started := now(), time.Now()
				n := w.dom.SweepObligations()
				w.mu.Lock()
				w.sweepNs = append(w.sweepNs, float64(now()-t0))
				w.swept += int64(n)
				w.lastSweep = started // a sweep executes what was due when it began
				w.backlogMax = max(w.backlogMax, float64(w.dom.ObligationBacklog()))
				w.mu.Unlock()
				w.r.tr.add(span{kind: spControl, start: t0, end: now(), lane: 3})
				t0 = now()
				_ = w.dom.Health()
				w.sample(&w.healthNs, float64(now()-t0))
			}),
			paced(speed/reloadEvery.Seconds(), func(k int) {
				if k == 0 {
					return
				}
				if err := w.loadPolicy(); err != nil {
					w.o.fail(1, "policy reload: %v", err)
				}
			}),
			paced(eraseRate*speed, func(int) {
				id, ok := w.recent(p, time.Duration(float64(1500*time.Millisecond)/speed))
				if !ok {
					return
				}
				t0 := now()
				w.dom.EraseData("pii", id, "subject request")
				end := now()
				w.mu.Lock()
				w.eraseNs = append(w.eraseNs, float64(end-t0))
				w.erasures = append(w.erasures, id)
				w.mu.Unlock()
				w.r.tr.add(span{kind: spControl, start: t0, end: end, lane: 1})
			}),
			paced(ancestryRate*speed, func(int) {
				id, ok := w.recent(p, time.Duration(float64(500*time.Millisecond)/speed))
				if !ok {
					return
				}
				t0 := now()
				_, err := w.dom.Provenance().Ancestry(id)
				end := now()
				if errors.Is(err, audit.ErrUnknownNode) {
					return // its subject was erased in the meantime: nothing to find
				}
				w.sample(&w.ancestryNs, float64(end-t0))
				w.r.tr.add(span{kind: spControl, start: t0, end: end, lane: 2})
			}))
	}
	return func() {
		for _, s := range stops {
			s()
		}
	}
}

// verify is the post-run oracle: delivery totals, chains on both tiers and
// across their boundary, every erased datum absent from both tiers, and the
// retention proof a regulator would ask for.
func (w *reconfig) verify() {
	o := w.o
	o.check("deliveries", w.delivered(), w.expDelivered)
	o.check("policy errors", w.ev.policyErrors.Load(), 0)
	o.attempted++
	t0 := time.Now()
	if bad, err := w.dom.Log().Verify(); err != nil {
		o.fail(1, "in-memory chain broken at %d: %v", bad, err)
	}
	o.res.set("audit.verify_s", since(t0))
	o.attempted++
	if err := w.dom.AuditStore().VerifyAgainst(w.dom.Log()); err != nil {
		o.fail(1, "memory/disk chain boundary: %v", err)
	}
	gone := make(map[string]bool, len(w.erasures))
	for _, id := range w.erasures {
		gone[id] = true
	}
	var recs []audit.Record
	live := func(r audit.Record) {
		if r.DataID != "" && gone[r.DataID] && !r.Redacted {
			o.fail(1, "erased datum %s still readable in record %d", r.DataID, r.Seq)
		}
	}
	for _, r := range w.dom.Log().Select(nil) {
		live(r)
	}
	if err := w.dom.AuditStore().Read(w.dom.AuditStore().FirstSeq(), 0, func(r audit.Record) error {
		live(r)
		recs = append(recs, r)
		return nil
	}); err != nil {
		o.fail(1, "store scan: %v", err)
	}
	o.attempted += int64(len(w.erasures))
	// Everything under the tag that was older than the retention period
	// (plus the scheduler's one-second granularity and the sweep cadence)
	// when the last scheduled sweep began must be gone or tombstoned.
	t0 = time.Now()
	rep := audit.RetentionReport(recs, "pii", w.lastSweep.Add(-retention-3*time.Second))
	o.res.set("audit.retention_report_ms", since(t0)*1e3)
	o.attempted++
	if !rep.Compliant {
		o.fail(int64(len(rep.Violations)), "retention report: %d records under pii outlived their retention", len(rep.Violations))
	}
}

// runReconfig executes reconfig_compliance.
func runReconfig(cfg *config) (*outcome, error) {
	o := &outcome{workload: "reconfig_compliance", seed: cfg.seed, traced: cfg.trace, res: newResults()}
	res := o.res
	r := newRun(generators())
	rate, sat := cfg.rates(reconfigRefRate, reconfigSatRate)
	pl := r.plan(cfg, rate, sat)
	if cfg.trace {
		r.tr = newTracer(8 * (pl.ref.n + int(rate*cfg.seconds)))
		telemetry.Enable() // solely to read gate-dependent counters
		defer telemetry.Disable()
	}
	w, setupS, err := timeSetups(cfg, 40, func(a int) (*reconfig, error) { return buildReconfig(cfg, r, o, a) })
	if err != nil {
		return nil, err
	}
	defer w.close()
	res.set("setup_s", setupS)
	res.set("core.new_domain_ms", w.tNewDomain*1e3)
	res.set("sbus.connect_many_s", w.tConnectMany)

	watch := watchGauges(cfg, w.dom.Log(), w.dom.AuditStore())
	cost, satCPU := r.runPhases(pl, hooks{send: w.send, drain: w.drain, beside: w.beside})
	watch.report(res)
	w.verify()
	r.commonMetrics(cfg, o, pl, cost, satCPU, localLimitUs)

	res.setPct("reconfig_p50_ms", w.reconfigNs, 0.50, 1e6)
	res.setPct("reconfig_p99_ms", w.reconfigNs, 0.99, 1e6)
	res.setPct("policy.ctxchange_p50_us", w.ctxChangeNs, 0.50, 1e3)
	res.setPct("erase_p50_ms", w.eraseNs, 0.50, 1e6)
	res.setPct("erase_p95_ms", w.eraseNs, 0.95, 1e6)
	res.setPct("provenance_p50_us", w.ancestryNs, 0.50, 1e3)
	res.setPct("audit.ancestry_p50_us", w.ancestryNs, 0.50, 1e3)
	res.setPct("obligation.sweep_ms", w.sweepNs, 0.50, 1e6)
	res.setPct("store.offload_ms", w.offloadNs, 0.50, 1e6)
	res.setPct("core.health_poll_us", w.healthNs, 0.50, 1e3)
	res.setPct("policy.load_ms", w.loadMs, 0.50, 1)
	res.set("obligation.swept", float64(w.swept))
	res.set("obligation.backlog_max", w.backlogMax)
	if n := w.ev.redactions.Load(); n > 0 {
		res.set("obligation.tombstones_per_erase", float64(w.ev.tombstoned.Load())/float64(n))
	}
	sent := float64(w.publishCalls.Load())
	res.set("audit.records", float64(w.ev.records.Load()))
	res.set("audit.records_per_msg", float64(w.ev.records.Load())/sent)
	res.set("policy.errors", float64(w.ev.policyErrors.Load()))
	setShardMetrics(res, w.dom.Bus())
	res.set("sbus.denied", float64(w.ev.denied.Load()))
	var fired float64
	for _, f := range w.dom.PolicyEngine().LaneFirings() {
		fired += float64(f)
	}
	res.set("policy.firings", fired)
	s := w.dom.AuditStore()
	res.set("store.segments", float64(s.WAL().Segments()))
	res.set("store.shed", float64(s.Health().Shed))
	res.set("store.bytes_per_record", float64(dirBytes(filepath.Join(w.dir, "audit")))/float64(max(s.NextSeq(), 1)))

	if cfg.trace {
		st := groupSpans(r.tr.spans(), pl.ref).analyse(spPublish)
		st.setCommon(res)
		res.setPct("sbus.publish_self_p50_us", st.callSelf, 0.50, 1e3)
		setFsyncMetrics(res, filepath.Join(w.dir, "audit"), w.ev.records.Load())
		setFlowCacheRatio(res)
		w.controlProbes()
		if err := r.tr.write(cfg.outDir, "reconfig_compliance-spans.jsonl"); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	if err := w.dom.Close(); err != nil {
		o.fail(1, "close: %v", err)
	}
	res.set("core.close_ms", since(t0)*1e3)
	// What a restart would pay: reopen, replay, chain-verify.
	o.attempted++
	t0 = time.Now()
	if st, err := store.OpenAudit(filepath.Join(w.dir, "audit"), store.Options{}); err != nil {
		o.fail(1, "reopen + chain verify: %v", err)
	} else {
		took := since(t0)
		res.set("store.recover_records_per_s", float64(st.NextSeq())/took)
		_ = st.Close() // read-only reopen
	}
	res.set("failed_share", float64(o.failed)/float64(max(o.attempted, 1)))
	return o, nil
}

// controlProbes times the bus's control-plane calls directly on the live
// topology, and a direct store redaction, between phases.
func (w *reconfig) controlProbes() {
	res := w.o.res
	bus := w.dom.Bus()
	zn := w.zones[0]
	open := ifc.MustContext([]ifc.Tag{"medical"}, nil)
	var setNs, connNs, discNs []float64
	for k := 0; k < 30; k++ {
		if zn.open {
			w.dom.Store().Set(zn.key, ctxmodel.String("locked"))
			zn.open = false
		}
		t0 := now()
		err1 := bus.SetComponentContext(opsPrincipal, zn.dstName, open)
		t1 := now()
		err2 := bus.Connect(opsPrincipal, zn.srcName+".out", zn.dstName+".in")
		t2 := now()
		err3 := bus.Disconnect(opsPrincipal, zn.srcName+".out", zn.dstName+".in")
		t3 := now()
		err4 := bus.SetComponentContext(opsPrincipal, zn.dstName, ifc.SecurityContext{})
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			w.o.fail(1, "control probe: %v", err)
			return
		}
		setNs = append(setNs, float64(t1-t0))
		connNs = append(connNs, float64(t2-t1))
		discNs = append(discNs, float64(t3-t2))
	}
	res.set("sbus.setcontext_p50_us", median(setNs)/1e3)
	res.set("sbus.connect_p50_us", median(connNs)/1e3)
	res.set("sbus.disconnect_p50_us", median(discNs)/1e3)

	// Direct redaction of records nobody else is erasing: the control
	// probes' own reconfiguration records at the head of the store.
	s := w.dom.AuditStore()
	w.dom.Log().Flush()
	if err := s.Sync(); err != nil {
		w.o.fail(1, "store sync: %v", err)
		return
	}
	var redactNs []float64
	for k := uint64(1); k <= 9 && k < s.WAL().DurableSeq(); k++ {
		t0 := now()
		if _, err := s.Redact(s.WAL().DurableSeq()-k, "redacted: benchmark probe"); err != nil {
			w.o.fail(1, "redact probe: %v", err)
			return
		}
		redactNs = append(redactNs, float64(now()-t0))
	}
	if len(redactNs) > 0 {
		res.set("store.redact_p50_ms", median(redactNs)/1e6)
	}
	var pairs [][2]ifc.SecurityContext
	pairs = append(pairs, [2]ifc.SecurityContext{open, open}, [2]ifc.SecurityContext{open, {}})
	probeCheckFlow(res, pairs)
}
