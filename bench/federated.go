package main

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/attest"
	"lciot/internal/core"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/telemetry"
	"lciot/internal/transport"
)

// federated_relay: three attested domains in one process, linked over TCP
// loopback. Three quarters of the traffic goes home→cloud (one hop), a
// quarter home→relay→cloud (two hops, the relay's handler re-publishing) —
// not half and half, which would put the median delivery on the edge between
// the one-hop and the two-hop latency and let it flip between them; 70 % of
// messages are two-field vitals, 30 % also carry a 4 KiB bytes field; 10 %
// come from publishers whose context restricts residency to a jurisdiction
// neither peer declares, and must be denied at egress. No patterns, no
// rules, no store: codec, link protocol and transport do the work.

const (
	fedRefRate = 8000
	fedSatRate = 45000
	// Latency limit on deliver_p99_us for federated delivery.
	fedLimitUs = 5000
)

var vitalsSchema = msg.MustSchema("vitals", ifc.EmptyLabel,
	msg.Field{Name: "patient", Type: msg.TString, Required: true},
	msg.Field{Name: "hr", Type: msg.TFloat, Required: true},
	msg.Field{Name: "seq", Type: msg.TInt, Required: true},
	msg.Field{Name: "blob", Type: msg.TBytes},
)

// A loopback is transport.TCPNetwork that remembers the connections made
// through it, so that a discarded federation can be taken down: the bus has
// no call that closes a link, and repeated set-up would otherwise leave
// every earlier set-up's links and their goroutines behind. With both ends
// of a connection closed and the network refusing to dial, each link's
// supervisor exhausts its redial budget and the link shuts itself down.
//
// Refusing to dial is what keeps a discarded federation out of the next
// one: its links redial their peer's address for some ten seconds, the
// kernel may hand that port to a later federation's listener, and a link
// only checks that the bus answering carries the name it expects — which
// every federation's does. A stale "home" that got through would replace
// the live home's link on the live cloud and take its in-flight frames
// with it.
type loopback struct {
	mu     sync.Mutex
	conns  []transport.Conn
	closed bool
}

var errLoopbackClosed = errors.New("bench: loopback network of a discarded federation")

func (n *loopback) keep(c transport.Conn, err error) (transport.Conn, error) {
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		c.Close()
		return nil, errLoopbackClosed
	}
	n.conns = append(n.conns, c)
	return c, nil
}

func (n *loopback) Dial(addr string) (transport.Conn, error) {
	n.mu.Lock()
	closed := n.closed
	n.mu.Unlock()
	if closed {
		return nil, errLoopbackClosed
	}
	return n.keep(transport.TCPNetwork{}.Dial(addr))
}

func (n *loopback) Listen(addr string) (transport.Listener, error) {
	l, err := transport.TCPNetwork{}.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &loopbackListener{Listener: l, net: n}, nil
}

func (n *loopback) closeAll() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	for _, c := range n.conns {
		c.Close()
	}
	n.conns = nil
}

type loopbackListener struct {
	transport.Listener
	net *loopback
}

func (l *loopbackListener) Accept() (transport.Conn, error) { return l.net.keep(l.Listener.Accept()) }

type federation struct {
	cfg *config
	r   *run
	o   *outcome

	home, relay, cloud *core.Domain
	net                loopback
	listeners          []transport.Listener
	// pubs are the unrestricted publishers, linked straight to the cloud or
	// (see relayed) through the relay. restricted are the publishers whose
	// residency constraint no peer satisfies.
	pubs, restricted         []*sbus.Component
	sinks                    []*hitCounter
	blob                     []byte
	evHome, evRelay, evCloud *evidence

	tNewDomain, tFederate []float64

	expDelivered, expDenied, expRelayed int64
	backpressure                        atomic.Int64
	publishCalls                        atomic.Int64
}

func (w *federation) close() {
	for _, l := range w.listeners {
		l.Close()
	}
	w.net.closeAll()
	for _, d := range []*core.Domain{w.home, w.relay, w.cloud} {
		if d != nil {
			_ = d.Close() // teardown of a world that is being discarded
		}
	}
}

// relayed reports whether publisher k reaches the cloud through the relay.
func relayed(k int) bool { return k%4 == 3 }

func fedPublishers(cfg *config) int {
	if cfg.toy {
		return 8
	}
	return 32
}

func buildFederation(cfg *config, r *run, o *outcome) (*federation, error) {
	w := &federation{cfg: cfg, r: r, o: o}
	ctx := ifc.MustContext([]ifc.Tag{"medical"}, nil)
	newDomain := func(name string, jur ...ifc.Tag) (*core.Domain, error) {
		t0 := time.Now()
		d, err := core.NewDomain(name, core.Options{ACL: openACL(), Jurisdiction: jur})
		w.tNewDomain = append(w.tNewDomain, since(t0)*1e3)
		return d, err
	}
	var err error
	if w.home, err = newDomain("home", "eu"); err != nil {
		return nil, err
	}
	if w.relay, err = newDomain("relay", "us"); err != nil {
		return nil, err
	}
	if w.cloud, err = newDomain("cloud", "us"); err != nil {
		return nil, err
	}
	net := &w.net
	serve := func(d *core.Domain) (string, error) {
		l, err := net.Listen("127.0.0.1:0")
		if err != nil {
			return "", err
		}
		w.listeners = append(w.listeners, l)
		go d.Serve(l) // returns when the listener closes
		return l.Addr(), nil
	}
	relayAddr, err := serve(w.relay)
	if err != nil {
		return nil, err
	}
	cloudAddr, err := serve(w.cloud)
	if err != nil {
		return nil, err
	}
	federate := func(from, to *core.Domain, addr string) error {
		from.EnrollPeer(to.TPM().DeviceID(), to.TPM().EndorsementKey())
		t0 := time.Now()
		_, err := from.Federate(net, addr, to.TPM(), attest.Policy{})
		w.tFederate = append(w.tFederate, since(t0)*1e3)
		return err
	}
	if err := federate(w.home, w.cloud, cloudAddr); err != nil {
		return nil, err
	}
	if err := federate(w.home, w.relay, relayAddr); err != nil {
		return nil, err
	}
	if err := federate(w.relay, w.cloud, cloudAddr); err != nil {
		return nil, err
	}

	out := sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: vitalsSchema}
	in := sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: vitalsSchema}
	n := fedPublishers(cfg)
	for k := 0; k < n; k++ {
		sk := &hitCounter{}
		w.sinks = append(w.sinks, sk)
		sinkName := fmt.Sprintf("sink-%02d", k)
		if _, err := w.cloud.Bus().Register(sinkName, opsPrincipal, ctx, w.sinkHandler(sk), in); err != nil {
			return nil, err
		}
		pub, err := w.home.Bus().Register(fmt.Sprintf("pub-%02d", k), opsPrincipal, ctx, nil, out)
		if err != nil {
			return nil, err
		}
		w.pubs = append(w.pubs, pub)
		if !relayed(k) {
			if err := w.home.Bus().Connect(opsPrincipal, pub.Name()+".out", "cloud:"+sinkName+".in"); err != nil {
				return nil, err
			}
			continue
		}
		fwdName := fmt.Sprintf("fwd-%02d", k)
		var fwd *sbus.Component
		fwd, err = w.relay.Bus().Register(fwdName, opsPrincipal, ctx, func(m *msg.Message, _ sbus.Delivery) {
			t0 := now()
			delivered, err := fwd.Publish("out", m)
			if err != nil || delivered != 1 {
				w.o.fail(1, "relay re-publish: %d deliveries, err %v", delivered, err)
			}
			id := m.Attrs["seq"].Int
			if p, _, ok := w.r.split(id); ok && p.traced {
				w.r.tr.add(span{id: id, kind: spRelay, parent: spPublish, start: t0, end: now(), lane: 1})
			}
		}, in, out)
		if err != nil {
			return nil, err
		}
		if err := w.home.Bus().Connect(opsPrincipal, pub.Name()+".out", "relay:"+fwdName+".in"); err != nil {
			return nil, err
		}
		if err := w.relay.Bus().Connect(opsPrincipal, fwdName+".out", "cloud:"+sinkName+".in"); err != nil {
			return nil, err
		}
	}
	// Restricted publishers connect while unconstrained, then narrow their
	// own context to data that may only reside in a jurisdiction no peer
	// declares: from then on every publish must be denied at egress.
	euOnly := ctx.WithJurisdiction(ifc.MustLabel("eu-only"))
	for k := 0; k < max(n/8, 1); k++ {
		res, err := w.home.Bus().Register(fmt.Sprintf("res-%02d", k), opsPrincipal, ctx, nil, out)
		if err != nil {
			return nil, err
		}
		if err := w.home.Bus().Connect(opsPrincipal, res.Name()+".out", "cloud:sink-00.in"); err != nil {
			return nil, err
		}
		if err := res.SetContext(euOnly); err != nil {
			return nil, err
		}
		w.restricted = append(w.restricted, res)
	}
	// Establishing a channel from an already-restricted publisher must fail
	// outright, with the typed error.
	o.attempted++
	err = w.home.Bus().Connect(opsPrincipal, w.restricted[0].Name()+".out", "cloud:sink-01.in")
	if !errors.Is(err, sbus.ErrResidency) {
		o.fail(1, "connect from a residency-restricted publisher: got %v, want ErrResidency", err)
	}

	w.blob = make([]byte, 4096)
	for i := range w.blob {
		w.blob[i] = byte(splitmix64(cfg.seed + uint64(i)))
	}
	w.evHome = &evidence{r: r, skipAllowed: true}
	w.evRelay = &evidence{r: r, skipAllowed: true, skipDenied: true}
	w.evCloud = &evidence{r: r}
	w.home.Log().AddSink(w.evHome.onRecord)
	w.relay.Log().AddSink(w.evRelay.onRecord)
	w.cloud.Log().AddSink(w.evCloud.onRecord)
	return w, nil
}

func (w *federation) sinkHandler(sk *hitCounter) sbus.Handler {
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

type fedMsg struct {
	pub        int
	restricted bool
	big        bool
}

func (w *federation) spec(p *phase, i int) fedMsg {
	h := splitmix64(splitmix64(w.cfg.seed+uint64(p.idx)) + uint64(i))
	m := fedMsg{restricted: h>>8%10 == 0, big: h>>20%10 < 3}
	if m.restricted {
		m.pub = int(h >> 32 % uint64(len(w.restricted)))
	} else {
		m.pub = int(h >> 32 % uint64(len(w.pubs)))
	}
	return m // pub indexes w.restricted or w.pubs, by m.restricted
}

func (w *federation) send(p *phase, g int, id int64, i int) {
	s := w.spec(p, i)
	comp, want := w.pubs[s.pub], 1
	if s.restricted {
		comp, want = w.restricted[s.pub], 0
	}
	m := msg.New("vitals").Set("patient", msg.Str(comp.Name())).
		Set("hr", msg.Float(60+float64(i%40))).Set("seq", msg.Int(id))
	if s.big {
		m.Set("blob", msg.Bytes(w.blob))
	}
	m.DataID = "v/" + strconv.Itoa(s.pub) + "/" + strconv.FormatInt(id, 10)
	t0 := now()
	delivered, err := comp.Publish("out", m)
	if p.traced {
		w.r.tr.add(span{id: id, kind: spPublish, parent: spGen, start: t0, end: now(), lane: int32(g)})
	}
	w.publishCalls.Add(1)
	switch {
	case err != nil:
		w.o.fail(1, "%s publish %d: %v", p.name, i, err)
	case delivered != want && !s.restricted:
		// The only way an unrestricted publish is not accepted is a link
		// queue that stayed full past its send timeout.
		w.backpressure.Add(1)
		w.o.fail(1, "%s publish %d: link refused the message (backpressure)", p.name, i)
	case delivered != want:
		w.o.fail(1, "%s publish %d: residency-restricted message left the domain", p.name, i)
	}
}

func (w *federation) account(p *phase) {
	flipped := false
	w.r.forEachSent(p, func(i int) {
		s := w.spec(p, i)
		want := 1
		if s.restricted {
			want = 0
			w.expDenied++
		} else if relayed(s.pub) {
			w.expRelayed++
		}
		if w.cfg.flip && !flipped && p.measured && !s.restricted {
			want, flipped = 0, true
		}
		w.expDelivered += int64(want)
		if p.open() {
			p.want[i] = uint8(want)
		}
	})
	w.o.attempted += int64(p.total())
}

func (w *federation) delivered() int64 {
	var n int64
	for _, sk := range w.sinks {
		n += sk.count.Load()
	}
	return n
}

func (w *federation) drain(p *phase) {
	t0 := now()
	w.account(p)
	modelNs := now() - t0
	awaitDeliveries(w.o, p, w.delivered, w.expDelivered)
	w.home.Log().Flush()
	w.relay.Log().Flush()
	w.cloud.Log().Flush()
	p.end = now() - modelNs
	p.checkSeen(w.o)
}

func (w *federation) verify() {
	o := w.o
	check := o.check
	sent := w.publishCalls.Load()
	check("cloud deliveries", w.delivered(), w.expDelivered)
	check("home egress records", w.evHome.allowed.Load(), sent-w.expDenied)
	check("home residency denials", w.evHome.denied.Load(), w.expDenied)
	check("relay flow records", w.evRelay.allowed.Load(), 2*w.expRelayed)
	check("cloud ingress records", w.evCloud.allowed.Load(), sent-w.expDenied)
	check("cloud denials", w.evCloud.denied.Load()+w.evRelay.denied.Load(), 0)
	t0 := time.Now()
	for _, d := range []*core.Domain{w.home, w.relay, w.cloud} {
		o.attempted++
		if bad, err := d.Log().Verify(); err != nil {
			o.fail(1, "%s chain broken at %d: %v", d.Name(), bad, err)
		}
	}
	o.res.set("audit.verify_s", since(t0))
}

// runFederated executes federated_relay.
func runFederated(cfg *config) (*outcome, error) {
	o := &outcome{workload: "federated_relay", seed: cfg.seed, traced: cfg.trace, res: newResults()}
	res := o.res
	r := newRun(generators())
	rate, sat := cfg.rates(fedRefRate, fedSatRate)
	pl := r.plan(cfg, rate, sat)
	if cfg.trace {
		r.tr = newTracer(8 * (pl.ref.n + int(rate*cfg.seconds)))
		telemetry.Enable() // solely to read gate-dependent counters
		defer telemetry.Disable()
	}
	// A discarded federation's links keep redialing for some ten seconds
	// (into the first phases), so set-up is repeated a couple of dozen times,
	// not hundreds.
	w, setupS, err := timeSetups(cfg, 25, func(int) (*federation, error) { return buildFederation(cfg, r, o) })
	if err != nil {
		return nil, err
	}
	defer w.close()
	res.set("setup_s", setupS)
	res.set("core.new_domain_ms", median(w.tNewDomain))
	res.set("core.federate_ms", median(w.tFederate))

	// The in-memory logs are pruned every second, as on the other
	// store-less workload, so memory is steady state.
	prune := func(*phase) (stop func()) {
		return paced(cfg.speed(), func(k int) {
			if k == 0 {
				return // the first tick is the phase start
			}
			for _, d := range []*core.Domain{w.home, w.relay, w.cloud} {
				next, _ := d.Log().Checkpoint()
				d.Log().Prune(next)
			}
		})
	}
	watch := watchGauges(cfg, w.cloud.Log(), nil)
	txBefore := telemetryCounter("sbus_link_tx_bytes_total", "", "")
	cost, satCPU := r.runPhases(pl, hooks{send: w.send, drain: w.drain, beside: prune})
	watch.report(res)
	w.verify()
	r.commonMetrics(cfg, o, pl, cost, satCPU, fedLimitUs)

	sent := float64(w.publishCalls.Load())
	records := float64(w.evHome.records.Load() + w.evRelay.records.Load() + w.evCloud.records.Load())
	res.set("audit.records", records)
	res.set("audit.records_per_msg", records/sent)
	res.set("sbus.delivered", float64(w.delivered()))
	res.set("sbus.denied", float64(w.evHome.denied.Load()))
	res.set("ifc.denied_ratio", float64(w.evHome.denied.Load())/sent)
	res.set("sbus.link_backpressure", float64(w.backpressure.Load()))
	var highwater, reconnects float64
	for _, d := range []*core.Domain{w.home, w.relay, w.cloud} {
		for _, ls := range d.LinkStatus() {
			highwater = max(highwater, float64(ls.QueueHighWater))
			reconnects += float64(ls.Reconnects)
		}
	}
	res.set("sbus.link_queue_highwater", highwater)
	res.set("sbus.link_reconnects", reconnects)

	// Per-hop latency: the reference phase's samples split by path.
	var hop1, hop2 []float64
	for i := 0; i < pl.ref.n; i++ {
		if pl.ref.seen[i].Load() == 0 {
			continue
		}
		l := float64(pl.ref.lat[i*maxFan])
		if !relayed(w.spec(pl.ref, i).pub) {
			hop1 = append(hop1, l)
		} else {
			hop2 = append(hop2, l)
		}
	}
	res.setPct("sbus.hop1_p50_us", hop1, 0.50, 1e3)
	res.setPct("sbus.hop2_p50_us", hop2, 0.50, 1e3)

	if cfg.trace {
		st := groupSpans(r.tr.spans(), pl.ref).analyse(spPublish)
		st.setCommon(res)
		res.setPct("sbus.publish_self_p50_us", st.callSelf, 0.50, 1e3)
		res.setPct("sbus.relay_forward_p50_us", st.relayFwd, 0.50, 1e3)
		res.set("msg.wire_bytes_per_msg", (telemetryCounter("sbus_link_tx_bytes_total", "", "")-txBefore)/sent)
		setFlowCacheRatio(res)
		ctx := ifc.MustContext([]ifc.Tag{"medical"}, nil)
		probeCheckFlow(res, [][2]ifc.SecurityContext{{ctx, ctx}, {ctx.WithJurisdiction(ifc.MustLabel("eu-only")), ctx}})
		small := msg.New("vitals").Set("patient", msg.Str("pub-00")).Set("hr", msg.Float(72)).Set("seq", msg.Int(1<<idShift))
		small.DataID = "v/0/" + strconv.Itoa(1<<idShift)
		big := small.Clone().Set("blob", msg.Bytes(w.blob))
		probeCodec(res, small, big)
		if err := probeEcho(res); err != nil {
			return nil, err
		}
		if err := r.tr.write(cfg.outDir, "federated_relay-spans.jsonl"); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	w.close()
	res.set("core.close_ms", since(t0)*1e3)
	res.set("failed_share", float64(o.failed)/float64(max(o.attempted, 1)))
	return o, nil
}
