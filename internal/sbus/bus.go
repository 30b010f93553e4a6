package sbus

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lciot/internal/ac"
	"lciot/internal/audit"
	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
)

// A channelKey identifies a channel by its fully-qualified endpoints.
type channelKey struct {
	src, dst string // "component.endpoint" (local) or "bus:component.endpoint"
}

// A channel is an established flow path from a source endpoint to a sink.
// The endpoints are resolved once, at establishment: components are never
// deregistered and endpoint specs are immutable after registration, so the
// cached pointers stay valid for the channel's lifetime, and every dynamic
// property (context, clearance, quarantine) is re-read per delivery.
type channel struct {
	key     channelKey
	srcComp *Component
	srcEP   EndpointSpec
	// remoteBus/remoteDst are set when the sink lives on a linked bus, along
	// with agent, which the link layer needs to replay the connect
	// handshake when a broken link resumes.
	remoteBus string
	remoteDst string
	agent     ifc.PrincipalID
	// dstComp/dstEP are set for local sinks.
	dstComp *Component
	dstEP   EndpointSpec
	// srcShard/dstShard cache the home shards of the two endpoints (equal
	// for same-shard and remote channels), so publish decides inline
	// delivery versus ring handoff without hashing.
	srcShard int
	dstShard int
	// verified caches the generations at which this channel's flow legality
	// was last confirmed; see chanStamp. Written by Connect and reevaluate,
	// read by reevaluate to skip checks no generation has invalidated.
	verified atomic.Pointer[chanStamp]
}

// auditIDs returns the entities audit records name the channel's ends
// by, the same at establishment and teardown: the endpoints' components,
// or for a cross-bus channel the remote sink's "bus:component.endpoint".
func (ch *channel) auditIDs() (src, dst ifc.EntityID) {
	if ch.dstComp == nil {
		return ch.srcComp.entity.ID(), ifc.EntityID(ch.key.dst)
	}
	return ch.srcComp.entity.ID(), ch.dstComp.entity.ID()
}

// A chanStamp records the invalidation generations a channel-legality check
// was derived from: the two endpoint entities' context generations and the
// process-wide flow-cache generation (which advances on privilege and gate
// changes). While all three are unchanged, the channel's last verdict still
// describes the live configuration and re-evaluation may skip it — the same
// generation-stamping discipline as the ifc flow cache.
type chanStamp struct {
	srcGen, dstGen, flowGen uint64
}

// routing is one shard's immutable routing state. Mutations (component
// registration, channel establishment/teardown) build the next version
// under the shard's write lock and publish it atomically, so the message
// hot path (publish → deliverLocal) reads routing state without taking any
// lock and never contends with reconfiguration — and reconfiguration of
// one shard never contends with any other shard. Each index is a cowMap,
// so a version copies only the buckets its mutation writes.
type routing struct {
	// ver numbers the shard's snapshot versions: clone increments it, and
	// chanList stamps record which version made a list.
	ver uint64
	// components maps the names that hash to this shard to their components.
	components cowMap[string, *Component]
	// channels holds the channels this shard owns: those whose source
	// component is homed here.
	channels cowMap[channelKey, *channel]
	// bySrc indexes owned channels by their source endpoint
	// ("component.endpoint"), making publish O(fan-out) instead of
	// O(total channels).
	bySrc cowMap[string, chanList]
	// byComp indexes channels by this shard's *components* (source, and
	// local sink when it differs), so a context change re-evaluates only the
	// changed component's channels instead of every channel on the bus. A
	// cross-shard channel therefore appears in its sink's home shard under
	// byComp even though the source's shard owns it.
	byComp cowMap[string, chanList]
}

// A chanList is one bySrc or byComp entry: the channels, and the routing
// version that allocated chs. Only that version may edit chs in place;
// any later one copies it first (see routing.edit).
type chanList struct {
	chs []*channel
	ver uint64
}

func newRouting() *routing {
	return &routing{
		components: cowMap[string, *Component]{hash: hashString},
		// Channels bucket by source endpoint, as bySrc does: a source's
		// channels share a bucket, whose copy costs what copying the
		// source's bySrc entry already costs.
		channels: cowMap[channelKey, *channel]{hash: func(k channelKey) uint64 { return hashString(k.src) }},
		bySrc:    cowMap[string, chanList]{hash: hashString},
		byComp:   cowMap[string, chanList]{hash: hashString},
	}
}

// clone starts the next version of the snapshot. It copies no entries:
// each map copies its bucket table and the buckets it writes on first
// write (the referenced components and channels are shared — they are
// immutable or internally synchronised). Channel lists are shared too;
// routing.edit copies one before its first write.
func (r *routing) clone() *routing {
	return &routing{
		ver:        r.ver + 1,
		components: r.components.clone(),
		channels:   r.channels.clone(),
		bySrc:      r.bySrc.clone(),
		byComp:     r.byComp.clone(),
	}
}

// A Bus is one messaging substrate instance: the per-machine process that
// mediates all component interactions (Fig. 9). It owns the component
// table, the channel table, the audit log, and the links to other buses.
// The tables are partitioned across shards by component-name hash; see
// the package documentation for the sharding model.
type Bus struct {
	name  string
	acl   *ac.ACL
	store *ctxmodel.Store
	log   *audit.Log
	gates ifc.GateRegistry

	// shards partition routing state and dispatch by component hash.
	// len(shards) >= 1 and is fixed at construction.
	shards []*shard

	// quit, closed by Close, stops the shard dispatchers; closed is the
	// flag publishers consult (under the shard's enqMu read lock) before
	// attempting a ring handoff, so no message is enqueued after the
	// dispatchers' final drain.
	quit      chan struct{}
	closed    atomic.Bool
	closeOnce sync.Once

	// links maps peer bus names to live links. Links are bus-global (a
	// link serves channels from every shard), so they live outside the
	// shard snapshots: linkMu serialises mutations, the pointer is read
	// lock-free.
	linkMu sync.Mutex
	links  atomic.Pointer[map[string]*link]

	// admission, when non-nil, is consulted with the advertised security
	// context of every cross-bus ingress (connect and message): federated
	// peers may present tags this domain has never seen, and the admission
	// policy decides whether they are meaningful here (Challenge 1 —
	// typically by resolving each tag through the global namespace).
	admission atomic.Pointer[func(ifc.SecurityContext) error]

	// linkCfg is the tuning applied to links established by this bus; nil
	// means the defaults (see LinkConfig.withDefaults).
	linkCfg atomic.Pointer[LinkConfig]

	// jurisdiction is the set of jurisdictions this bus (machine) resides
	// in, declared to peers in the federation hello so their link egress
	// can enforce residency obligations before data leaves the region.
	// Empty means undeclared — residency-constrained data will then never
	// be sent to (or accepted by) this bus.
	jurisdiction atomic.Pointer[ifc.Label]

	// pubHist times publish calls end to end (zero cost while telemetry
	// is disabled: Start returns the zero time after one atomic load).
	pubHist *telemetry.Histogram
}

// NewShardedBus builds a bus whose routing state and dispatch are
// partitioned into the given number of shards (clamped to [1, 1024]). The
// ACL governs the control plane (who may reconfigure what); the context
// store supplies snapshots for contextual AC conditions; the audit log
// receives every enforcement decision. Components are assigned to shards
// by name hash; same-shard deliveries run inline on the publisher's
// goroutine, cross-shard deliveries hand off to the destination shard's
// dispatcher, so on a single-shard bus every delivery runs inline. Call
// Close to stop the dispatchers when the bus is discarded.
func NewShardedBus(name string, shards int, acl *ac.ACL, store *ctxmodel.Store, log *audit.Log) *Bus {
	if acl == nil {
		acl = &ac.ACL{}
	}
	if store == nil {
		store = ctxmodel.NewStore(nil)
	}
	if log == nil {
		log = audit.NewLog(nil)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	// One audit staging lane per shard: each dispatcher appends hot-path
	// records into its own lane buffer, so audit ingest never serialises
	// parallel deliveries (chain-order is restored at the merge; see
	// audit.Log.AppendAsyncOn).
	log.SetStagingLanes(shards)
	b := &Bus{
		name:  name,
		acl:   acl,
		store: store,
		log:   log,
		quit:  make(chan struct{}),
	}
	empty := map[string]*link{}
	b.links.Store(&empty)
	b.shards = make([]*shard, shards)
	for i := range b.shards {
		sh := &shard{idx: i, ring: make(chan handoff, handoffRingSize)}
		sh.routing.Store(newRouting())
		b.shards[i] = sh
	}
	if shards > 1 {
		for _, sh := range b.shards {
			go sh.dispatch(b)
		}
	}
	registerBusMetrics(b)
	return b
}

// Name returns the bus name (used in cross-bus addresses).
func (b *Bus) Name() string { return b.name }

// SetJurisdiction declares the jurisdictions this bus resides in. The
// declaration travels in the jurisdiction field of the link hello frame,
// where peer buses use it to gate egress of residency-constrained data; links
// established before the call keep the jurisdiction they greeted with
// until their next reconnect.
func (b *Bus) SetJurisdiction(l ifc.Label) { b.jurisdiction.Store(&l) }

// Jurisdiction returns the declared jurisdiction set (empty when
// undeclared).
func (b *Bus) Jurisdiction() ifc.Label {
	if l := b.jurisdiction.Load(); l != nil {
		return *l
	}
	return ifc.EmptyLabel
}

// SetAdmissionPolicy installs the cross-bus ingress filter (see the
// admission field). A nil policy admits any well-formed context.
func (b *Bus) SetAdmissionPolicy(fn func(ifc.SecurityContext) error) {
	if fn == nil {
		b.admission.Store(nil)
		return
	}
	b.admission.Store(&fn)
}

// admit applies the admission policy to an advertised foreign context.
func (b *Bus) admit(ctx ifc.SecurityContext) error {
	fn := b.admission.Load()
	if fn == nil {
		return nil
	}
	return (*fn)(ctx)
}

// Log exposes the bus's audit log.
func (b *Bus) Log() *audit.Log { return b.log }

// Store exposes the bus's context store.
func (b *Bus) Store() *ctxmodel.Store { return b.store }

// ACL exposes the bus's access-control list.
func (b *Bus) ACL() *ac.ACL { return b.acl }

// Gates exposes the bus's gate registry (declassifiers/endorsers installed
// in this domain).
func (b *Bus) Gates() *ifc.GateRegistry { return &b.gates }

// Register attaches a component to the bus, homing it on the shard its
// name hashes to.
func (b *Bus) Register(name string, principal ifc.PrincipalID, ctx ifc.SecurityContext,
	handler Handler, endpoints ...EndpointSpec) (*Component, error) {
	if name == "" || strings.ContainsAny(name, ".:") {
		return nil, fmt.Errorf("sbus: invalid component name %q", name)
	}
	idx := b.shardIdx(name)
	c := &Component{
		name:      name,
		bus:       b,
		shard:     idx,
		entity:    ifc.NewEntity(ifc.EntityID(b.name+":"+name), ctx),
		principal: principal,
		handler:   handler,
		endpoints: make(map[string]EndpointSpec, len(endpoints)),
	}
	for _, ep := range endpoints {
		if ep.Name == "" || ep.Schema == nil {
			return nil, fmt.Errorf("sbus: component %q: endpoint needs name and schema", name)
		}
		if _, dup := c.endpoints[ep.Name]; dup {
			return nil, fmt.Errorf("sbus: component %q: duplicate endpoint %q", name, ep.Name)
		}
		c.endpoints[ep.Name] = ep
	}
	var dup bool
	b.mutate([]int{idx}, func(rs map[int]*routing) bool {
		r := rs[idx]
		if _, dup = r.components.get(name); dup {
			return false
		}
		r.components.set(name, c)
		return true
	})
	if dup {
		return nil, fmt.Errorf("%w: %q", ErrDupComponent, name)
	}
	return c, nil
}

// Component looks a component up by name. Names map to exactly one shard,
// so the lookup reads a single snapshot, lock-free.
func (b *Bus) Component(name string) (*Component, error) {
	c, ok := b.shardFor(name).routing.Load().components.get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoComponent, name)
	}
	return c, nil
}

// Components lists component names across all shards, sorted.
func (b *Bus) Components() []string {
	var out []string
	for _, sh := range b.shards {
		sh.routing.Load().components.each(func(n string, _ *Component) {
			out = append(out, n)
		})
	}
	sort.Strings(out)
	return out
}

// HotComponents returns the k components with the most lifetime deliveries,
// hottest first (ties broken by name for determinism), each tagged with its
// home shard. The scan is lock-free — it reads the routing snapshots and
// each component's delivery counter — so operators can poll it to pinpoint
// which component a skewed lane's load concentrates on.
func (b *Bus) HotComponents(k int) []telemetry.HotComponent {
	if k <= 0 {
		return nil
	}
	var all []telemetry.HotComponent
	for _, sh := range b.shards {
		sh.routing.Load().components.each(func(name string, c *Component) {
			if n := c.delivered.Load(); n > 0 {
				all = append(all, telemetry.HotComponent{Name: name, Lane: sh.idx, Deliveries: n})
			}
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Deliveries != all[j].Deliveries {
			return all[i].Deliveries > all[j].Deliveries
		}
		return all[i].Name < all[j].Name
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// splitEndpointAddr parses "component.endpoint".
func splitEndpointAddr(addr string) (comp, ep string, err error) {
	i := strings.LastIndexByte(addr, '.')
	if i <= 0 || i == len(addr)-1 {
		return "", "", fmt.Errorf("sbus: address %q is not component.endpoint", addr)
	}
	return addr[:i], addr[i+1:], nil
}

// splitRemoteAddr parses "bus:component.endpoint"; an empty bus means local.
func splitRemoteAddr(addr string) (bus, rest string) {
	if i := strings.IndexByte(addr, ':'); i >= 0 {
		return addr[:i], addr[i+1:]
	}
	return "", addr
}

// resolveLocal returns the component and endpoint spec for a local address,
// checking the expected direction.
func (b *Bus) resolveLocal(addr string, wantDir Direction) (*Component, EndpointSpec, error) {
	compName, epName, err := splitEndpointAddr(addr)
	if err != nil {
		return nil, EndpointSpec{}, err
	}
	c, ok := b.shardFor(compName).routing.Load().components.get(compName)
	if !ok {
		return nil, EndpointSpec{}, fmt.Errorf("%w: %q", ErrNoComponent, compName)
	}
	ep, ok := c.Endpoint(epName)
	if !ok {
		return nil, EndpointSpec{}, fmt.Errorf("%w: %q on %q", ErrNoEndpoint, epName, compName)
	}
	if ep.Dir != wantDir {
		return nil, EndpointSpec{}, fmt.Errorf("%w: %q is %s, want %s", ErrDirection, addr, ep.Dir, wantDir)
	}
	return c, ep, nil
}

// Connect establishes a channel from a local source endpoint to a sink,
// which may be local ("comp.ep") or remote ("bus:comp.ep"), on behalf of
// principal "by". Enforcement at establishment (Section 8.2.2):
//
//  1. Access control: "by" must hold connect rights over the channel
//     resource at message-type granularity.
//  2. Schema compatibility between the endpoints.
//  3. IFC: the source component's context must flow to the sink's.
//
// Both success and denial are audited.
func (b *Bus) Connect(by ifc.PrincipalID, src, dst string) error {
	ch, err := b.police(by, src, dst, b.store.Snapshot(), nil)
	if err != nil {
		return err
	}
	if ch.remoteBus != "" {
		return b.connectRemote(by, ch)
	}
	b.applyRoutes([]routeEdit{{ch: ch}})

	srcID, dstID := ch.auditIDs()
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: srcID, Dst: dstID,
		SrcCtx: ch.srcComp.Context(), DstCtx: ch.dstComp.Context(),
		Agent: by, Note: "channel established",
	})
	return nil
}

// police resolves and polices one channel request from principal "by" —
// AC, source and sink quarantine, schema compatibility, IFC — and returns
// the channel stamped and ready to install. AC decisions are evaluated
// against snap and, when authorized is non-nil, memoized in it across a
// batch. A remote sink is only resolved to its bus and address: the peer
// bus performs the authoritative sink-side checks (see connectRemote).
// Connect and ConnectMany share it, so both police a pair identically.
func (b *Bus) police(by ifc.PrincipalID, src, dst string, snap ctxmodel.Snapshot,
	authorized map[string]bool) (*channel, error) {
	srcComp, srcEP, err := b.resolveLocal(src, Source)
	if err != nil {
		return nil, err
	}
	resource := "channel/" + srcEP.Schema.Name + "/" + src + "/" + dst
	if !authorized[resource] {
		if err := b.acl.Authorize(by, "connect", resource, snap); err != nil {
			b.auditDenied(srcComp.entity.ID(), ifc.EntityID(dst), srcComp.Context(),
				ifc.SecurityContext{}, by, "", "connect denied by AC: "+err.Error())
			return nil, err
		}
		if authorized != nil {
			authorized[resource] = true
		}
	}
	if srcComp.Quarantined() {
		return nil, fmt.Errorf("%w: %q", ErrQuarantined, srcComp.Name())
	}

	remoteBus, rest := splitRemoteAddr(dst)
	if remoteBus != "" && remoteBus != b.name {
		return &channel{
			key: channelKey{src: src, dst: dst}, srcComp: srcComp, srcEP: srcEP, agent: by,
			remoteBus: remoteBus, remoteDst: rest,
		}, nil
	}
	dstComp, dstEP, err := b.resolveLocal(rest, Sink)
	if err != nil {
		return nil, err
	}
	if dstComp.Quarantined() {
		return nil, fmt.Errorf("%w: %q", ErrQuarantined, dstComp.Name())
	}
	if srcEP.Schema.Name != dstEP.Schema.Name {
		return nil, fmt.Errorf("%w: %q emits %q, %q accepts %q",
			ErrSchema, src, srcEP.Schema.Name, rest, dstEP.Schema.Name)
	}
	// Read the generations before the contexts they stamp: a concurrent
	// SetContext can then only make the stamp stale (forcing a re-check),
	// never let it vouch for a context it did not see.
	srcCtx, srcGen := srcComp.entity.ContextAndGen()
	dstCtx, dstGen := dstComp.entity.ContextAndGen()
	flowGen := ifc.FlowCacheGeneration()
	if err := ifc.EnforceFlow(srcCtx, dstCtx); err != nil {
		note := "connect denied by IFC: " + err.Error()
		if via, ok := b.gates.Route(srcCtx, dstCtx); ok && via != "" {
			note += "; installed gate " + via + " could bridge this flow"
		}
		b.auditDenied(srcComp.entity.ID(), dstComp.entity.ID(), srcCtx,
			dstCtx, by, "", note)
		return nil, err
	}

	ch := &channel{
		key:     channelKey{src: src, dst: rest},
		srcComp: srcComp, srcEP: srcEP, dstComp: dstComp, dstEP: dstEP,
	}
	ch.verified.Store(&chanStamp{srcGen: srcGen, dstGen: dstGen, flowGen: flowGen})
	return ch, nil
}

// ConnectMany establishes many local channels in one pass, with one
// routing-snapshot swap per touched shard instead of one per channel —
// the bulk path for bootstrapping large topologies (a million channels
// copy each written bucket and channel list once per batch, not once per
// channel). Every pair is individually policed exactly as Connect polices
// it (AC, schema, IFC, quarantine); the first failure aborts the whole
// batch before any routing state changes. A key that repeats in the batch
// is established once, by its last pair, as repeated Connect would leave
// it. One summary audit record is appended per batch.
//
// The batch is one applyRoutes call, so it serialises against concurrent
// Connect/Disconnect on overlapping keys exactly like repeated Connect
// would. Lock-free readers may still briefly observe one shard's new
// snapshot alongside another's old one (snapshots swap per shard). Remote
// destinations are not supported here.
func (b *Bus) ConnectMany(by ifc.PrincipalID, pairs [][2]string) error {
	if len(pairs) == 0 {
		return nil
	}
	snap := b.store.Snapshot()
	edits := make([]routeEdit, len(pairs))
	authorized := make(map[string]bool, 64)
	for i, p := range pairs {
		ch, err := b.police(by, p[0], p[1], snap, authorized)
		if err != nil {
			return err
		}
		if ch.remoteBus != "" {
			return fmt.Errorf("sbus: ConnectMany: remote destination %q not supported", p[1])
		}
		edits[i].ch = ch
	}
	b.applyRoutes(edits)

	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Agent: by, Note: fmt.Sprintf("bulk channel establishment: %d channels", len(pairs)),
	})
	return nil
}

// Disconnect removes a channel on behalf of a principal (AC-checked).
func (b *Bus) Disconnect(by ifc.PrincipalID, src, dst string) error {
	if err := b.acl.Authorize(by, "disconnect", "channel/*/"+src+"/"+dst, b.store.Snapshot()); err != nil {
		return err
	}
	key := channelKey{src: src, dst: dst}
	if remote, rest := splitRemoteAddr(dst); remote == "" || remote == b.name {
		key.dst = rest
	}
	removed := b.applyRoutes([]routeEdit{{key: key}})
	if len(removed) == 0 {
		return fmt.Errorf("%w: %s -> %s", ErrNoChannel, src, dst)
	}
	srcID, dstID := removed[0].auditIDs()
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: srcID, Dst: dstID,
		Agent: by, Note: "channel torn down",
	})
	return nil
}

// Channels lists established channels across all shards as "src -> dst",
// sorted.
func (b *Bus) Channels() []string {
	var out []string
	for _, sh := range b.shards {
		sh.routing.Load().channels.each(func(k channelKey, _ *channel) {
			out = append(out, k.src+" -> "+k.dst)
		})
	}
	sort.Strings(out)
	return out
}

// publish delivers a message from a source endpoint down every channel.
// The owning shard's routing snapshot is read without locks, so
// publication never contends with registration, connection or
// re-evaluation — on any shard. Same-shard sinks are delivered inline on
// the caller's goroutine; sinks homed on another shard are handed off to
// that shard's dispatcher through its ring (counted as delivered when
// accepted; per-message policy is still enforced, and denials audited, on
// the dispatching shard). If a ring is full, or the bus is closed and no
// dispatcher will drain it, the delivery runs inline instead, so
// publishers never block on a slow shard and never lose messages to a
// stopped one.
func (b *Bus) publish(c *Component, endpoint string, m *msg.Message) (int, error) {
	start := b.pubHist.Start()
	ep, ok := c.Endpoint(endpoint)
	if !ok {
		return 0, fmt.Errorf("%w: %q on %q", ErrNoEndpoint, endpoint, c.Name())
	}
	if ep.Dir != Source {
		return 0, fmt.Errorf("%w: %q is %s", ErrDirection, endpoint, ep.Dir)
	}
	if c.Quarantined() {
		return 0, fmt.Errorf("%w: %q", ErrQuarantined, c.Name())
	}
	if err := ep.Schema.Validate(m); err != nil {
		return 0, err
	}

	// Flow tracing: a message that arrives untraced makes the head
	// sampling decision here (hop 0), arming its stage clock with the
	// trace; one that already carries a trace — relayed off a link ingress
	// or re-published by a local component — keeps it, so a federated path
	// stays one trace and its stage edges telescope across the whole path.
	// A sampled publish stamps the trace on a shallow copy (attributes
	// shared), never on the caller's message: that may be a delivery other
	// sinks are reading concurrently.
	if m.Trace.IsZero() {
		if tc, ok := telemetry.StartTrace(); ok {
			cp := *m
			cp.Trace = tc
			m = &cp
			telemetry.RecordSpan(tc, b.name, "publish", c.Name()+"."+endpoint, "", "")
		}
	} else {
		telemetry.RecordSpan(m.Trace, b.name, "relay", c.Name()+"."+endpoint, "", "")
	}

	outs, _ := b.shards[c.shard].routing.Load().bySrc.get(c.Name() + "." + endpoint)

	delivered := 0
	for _, ch := range outs.chs {
		if ch.remoteBus != "" {
			if err := b.sendRemote(c, ep, ch.remoteBus, ch.remoteDst, m); err == nil {
				delivered++
			}
			continue
		}
		if ch.dstShard == c.shard {
			if b.deliverLocal(ch, m) {
				delivered++
			}
			continue
		}
		if b.shards[ch.dstShard].tryHandoff(b, handoff{ch: ch, m: m}) {
			delivered++
		} else if b.deliverLocal(ch, m) {
			delivered++
		}
	}
	b.pubHist.ObserveSince(start)
	return delivered, nil
}

// A delivery is one message bound for a local sink: deliverLocal and link
// ingress each fill one in for deliver.
type delivery struct {
	src             ifc.EntityID // the audited sender: a component, or a peer's endpoint
	srcCtx          ifc.SecurityContext
	agent           ifc.PrincipalID
	srcBus, srcAddr string // "component.endpoint" on srcBus, or a peer's "bus:component.endpoint"
	dst             *Component
	dstEP           EndpointSpec
	schema          *msg.Schema // the source endpoint's locally, the sink's own at ingress
	path            string      // "delivery" or "ingress": prefixes denial notes
}

// deliverLocal delivers down a local channel, on the publisher's goroutine
// or the sink shard's dispatcher.
func (b *Bus) deliverLocal(ch *channel, m *msg.Message) bool {
	src := ch.srcComp
	return b.deliver(&delivery{
		src: src.entity.ID(), srcCtx: src.Context(), agent: src.principal,
		srcBus: b.name, srcAddr: ch.key.src,
		dst: ch.dstComp, dstEP: ch.dstEP, schema: ch.srcEP.Schema, path: "delivery",
	}, m)
}

// deliver enforces per-message policy and invokes the sink handler: the
// one delivery pipeline (Section 8.2.2) that local channels and link
// ingress share. Sink quarantine, the OS-level IFC re-check (contexts may
// have changed since establishment), message-type clearance, attribute
// quenching, then handler invocation. Every outcome is audited (the audit
// records are staged per shard off the delivery path; see
// audit.Log.AppendAsyncOn).
func (b *Bus) deliver(d *delivery, m *msg.Message) bool {
	dstComp := d.dst
	dstCtx := dstComp.Context()
	deny := func(note string) {
		b.auditDeniedTrace(m.Trace, d.src, dstComp.entity.ID(), d.srcCtx, dstCtx, d.agent, m.DataID, note)
	}

	if dstComp.Quarantined() {
		deny(d.path + " denied: destination quarantined")
		return false
	}
	// OS-level IFC re-check on every message (cached per context pair).
	if err := ifc.EnforceFlow(d.srcCtx, dstCtx); err != nil {
		deny(d.path + " denied by IFC: " + err.Error())
		return false
	}
	// Message-layer type tags (Fig. 10): whole message needs clearance.
	clearance := dstComp.Clearance()
	if !d.schema.Secrecy.Subset(clearance) {
		deny(d.path + " denied: type tags " + d.schema.Secrecy.String() + " exceed clearance " + clearance.String())
		return false
	}
	// Attribute-level source quenching.
	out, quenched := d.schema.Quench(m, clearance)

	if !m.Trace.IsZero() { // guard: skip the dst formatting for untraced flows
		telemetry.RecordSpan(m.Trace, b.name, "deliver", d.srcAddr, dstComp.Name()+"."+d.dstEP.Name, "")
	}
	// Stage the record in the sink's shard audit lane: the lane is
	// uncontended when this runs on that shard's dispatcher, so parallel
	// deliveries never serialise on audit ingest. A sampled message
	// threads its stage clock through so the audit edge is marked at
	// commit.
	b.log.AppendAsyncOn(dstComp.shard, audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging, Domain: b.name,
		Src: d.src, Dst: dstComp.entity.ID(),
		SrcCtx: d.srcCtx, DstCtx: dstCtx,
		DataID: m.DataID, Agent: d.agent,
		Note: deliveryNote(quenched), TraceID: m.Trace.ID.String(),
	}, m.Trace.Clock)
	// Count before invoking the handler: the delivery is decided once
	// policy passes, and anything the handler unblocks (tests, examples
	// waiting on a message) must already see it in ShardStats.
	b.shards[dstComp.shard].delivered.Add(1)
	dstComp.delivered.Add(1)
	out.Trace.Clock.MarkDeliver()
	if dstComp.handler != nil {
		from := d.srcAddr
		if d.srcBus != "" {
			from = d.srcBus + ":" + from
		}
		dstComp.handler(out, Delivery{From: from, Endpoint: d.dstEP.Name, Quenched: quenched})
	}
	return true
}

func deliveryNote(quenched []string) string {
	if len(quenched) == 0 {
		return "delivered"
	}
	return "delivered with quenched attributes: " + strings.Join(quenched, ",")
}

// reevaluate re-checks the channels touching the named component and tears
// down those the current contexts no longer permit. The byComp index on
// the component's home shard keeps the cost proportional to the
// component's own channels — channels between unaffected components, on
// this shard or any other, are never visited — and the per-channel
// generation stamp skips even a touched channel when no generation it
// depends on has moved (e.g. a SetContext to the identical context). The
// scan itself is lock-free (it reads the immutable snapshot and atomic
// stamps), so concurrent re-evaluations on different components — even on
// the same shard — only contend when a teardown actually mutates routing.
func (b *Bus) reevaluate(component string) {
	sh := b.shardFor(component)
	sh.reevals.Add(1)
	cur := sh.routing.Load()
	var torn []*channel
	l, _ := cur.byComp.get(component)
	for _, ch := range l.chs {
		if ch.remoteBus != "" {
			continue // the remote bus re-checks on ingress
		}
		// Generations before contexts: a concurrent change then at worst
		// leaves a stale stamp, never a stamp vouching for unseen contexts.
		srcCtx, srcGen := ch.srcComp.entity.ContextAndGen()
		dstCtx, dstGen := ch.dstComp.entity.ContextAndGen()
		stamp := chanStamp{srcGen: srcGen, dstGen: dstGen, flowGen: ifc.FlowCacheGeneration()}
		if v := ch.verified.Load(); v != nil && *v == stamp {
			continue // legality already confirmed for these exact generations
		}
		if srcCtx.CanFlowTo(dstCtx) {
			ch.verified.Store(&stamp)
		} else {
			torn = append(torn, ch)
		}
	}
	if len(torn) == 0 {
		return
	}
	// Identity-checked removal: never tear down a replacement channel
	// connected after this scan condemned the old one.
	edits := make([]routeEdit, len(torn))
	for i, ch := range torn {
		edits[i] = routeEdit{key: ch.key, expect: ch}
	}
	for _, ch := range b.applyRoutes(edits) {
		srcID, dstID := ch.auditIDs()
		b.log.AppendAsync(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
			Src: srcID, Dst: dstID,
			Note: "channel torn down: context change made flow illegal",
		})
	}
}

// auditDenied appends a denial record (batched off the enforcement path)
// for a flow that carried no trace context.
func (b *Bus) auditDenied(src, dst ifc.EntityID, srcCtx, dstCtx ifc.SecurityContext,
	agent ifc.PrincipalID, dataID, note string) {
	b.auditDeniedTrace(telemetry.TraceContext{}, src, dst, srcCtx, dstCtx, agent, dataID, note)
}

// auditDeniedTrace appends a denial record, recording a "deny" span first.
// Denials are always traced (a trace ID is minted when the flow carried
// none — always-sample-on-error), and the span's ID is stamped into the
// audit record so the compliance evidence and the performance trace
// correlate.
func (b *Bus) auditDeniedTrace(tc telemetry.TraceContext, src, dst ifc.EntityID,
	srcCtx, dstCtx ifc.SecurityContext, agent ifc.PrincipalID, dataID, note string) {
	id := telemetry.RecordSpan(tc, b.name, "deny", string(src), string(dst), note)
	b.log.AppendAsync(audit.Record{
		Kind: audit.FlowDenied, Layer: audit.LayerMessaging, Domain: b.name,
		Src: src, Dst: dst, SrcCtx: srcCtx, DstCtx: dstCtx,
		DataID: dataID, Agent: agent, Note: note, TraceID: id.String(),
	})
}
