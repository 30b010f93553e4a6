package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/ac"
	"lciot/internal/attest"
	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/ctxmodel"
	"lciot/internal/device"
	"lciot/internal/gateway"
	"lciot/internal/ifc"
	"lciot/internal/names"
	"lciot/internal/obligation"
	"lciot/internal/policy"
	"lciot/internal/sbus"
	"lciot/internal/store"
	"lciot/internal/transport"
)

// PolicyEnginePrincipal is the identity under which the domain's policy
// engine issues reconfigurations; the domain ACL must authorise it.
const PolicyEnginePrincipal ifc.PrincipalID = "policy-engine"

// ErrAttestation is returned when federation is refused because the peer
// failed attestation.
var ErrAttestation = errors.New("core: peer failed attestation")

// Options configures a Domain.
type Options struct {
	// ACL governs the domain's control plane; nil denies everything except
	// the built-in policy-engine admin role.
	ACL *ac.ACL
	// Clock overrides time.Now (simulation/tests).
	Clock func() time.Time
	// Resolver, when non-nil, is consulted to validate foreign tags at
	// federation boundaries.
	Resolver *names.Resolver
	// OnAlert receives policy alert messages; nil discards them (they are
	// still audited).
	OnAlert func(message string)
	// OnConflict receives policy conflicts; nil discards (still counted).
	OnConflict func(policy.Conflict)
	// DataDir, when non-empty, makes the domain's audit log durable: a
	// segmented hash-chained store (internal/store) is opened under
	// DataDir/audit, recovered and chain-verified, the in-memory log is
	// primed with the recovered head, and every subsequent record is
	// persisted with batched group commit. Call Close on shutdown.
	DataDir string
	// Jurisdiction declares the jurisdictions this domain's machine
	// resides in. The declaration travels in the federation hello, where
	// peer buses gate egress of residency-constrained data against it
	// (and this bus gates its own egress against peers' declarations).
	Jurisdiction []ifc.Tag
	// Shards partitions the domain bus's routing state and dispatch
	// across that many shards (component-name hash; see internal/sbus).
	// Zero or one keeps the classic single-shard bus, where every
	// delivery is synchronous on the publisher's goroutine. Multi-core
	// hosts serving many components should set this near the core count
	// (see the README scaling guide).
	Shards int
}

// A Domain is one administrative domain of the IoT: a hospital, a home, a
// cloud provider.
type Domain struct {
	name  string
	bus   *sbus.Bus
	store *ctxmodel.Store
	log   *audit.Log
	cep   *cep.ShardedEngine
	eng   *policy.Engine

	devices  device.Registry
	tpm      *attest.TPM
	verifier *attest.Verifier
	resolver *names.Resolver
	clock    func() time.Time
	// auditStore is the disk tier of the audit log (nil without DataDir).
	auditStore *store.AuditStore

	// Obligation engine state (see obligations.go): the compiled per-tag
	// obligation table (swapped atomically on policy load), the sharded
	// retention-deadline scheduler, and the incrementally maintained
	// provenance graph that guides erasure.
	oblTab   atomic.Pointer[obligation.Table]
	oblSched *obligation.Scheduler
	prov     *audit.Graph

	mu        sync.Mutex
	alerts    []string
	conflicts []policy.Conflict
	onAlert   func(string)
	// oblPending queues scheduled deadlines announced by the audit sink
	// until the sweep loop turns them into ObligationScheduled records.
	oblPending []obligation.Entry
	// oblGateways are the gateways erasure propagates into.
	oblGateways []*gateway.Gateway

	// Shutdown state. closed flips first; Close then takes sweepMu once as
	// a barrier (mirroring sbus.Bus.Close's enqMu barrier), so any sweep
	// in flight finishes before the durable store goes away and any sweep
	// started after observes the flag and returns without touching it.
	closeOnce sync.Once
	closed    atomic.Bool
	closeErr  error
	// sweepMu serialises SweepObligations against Close.
	sweepMu sync.Mutex

	// Health cache (see health.go): healthMu guards the last built report
	// and the fingerprint of the subsystem state it was built from, so
	// polls only re-format details when something actually moved.
	healthMu    sync.Mutex
	healthFP    uint64
	healthInit  bool
	healthLast  [4]SubsystemHealth
	healthWorst HealthState

	// Diagnostic capture state (see diag.go): dataDir is retained so
	// degradation transitions can snapshot profiles under DataDir/diag;
	// diagInflight serialises captures; diagLastSkewNs debounces
	// skew-triggered captures. diagMu orders starting a capture against
	// Close, which closes diagStop (ending a running CPU profile early)
	// and then waits on diagWG, so no capture writes into DataDir after
	// Close returns.
	dataDir        string
	diagInflight   atomic.Bool
	diagLastSkewNs atomic.Int64
	diagMu         sync.Mutex
	diagStop       chan struct{}
	diagWG         sync.WaitGroup
}

// NewDomain assembles a domain. The returned domain owns its bus, stores,
// engines and TPM.
func NewDomain(name string, opts Options) (*Domain, error) {
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	acl := opts.ACL
	if acl == nil {
		acl = &ac.ACL{}
	}
	// The policy engine must always be able to reconfigure its own domain.
	acl.DefineRole(ac.Role{
		Name:   "domain-policy-engine",
		Grants: []ac.Permission{{Action: "*", Resource: "**"}},
	})
	if err := acl.Assign(ac.Assignment{
		Principal: PolicyEnginePrincipal, Role: "domain-policy-engine",
		Args: map[string]string{},
	}); err != nil {
		return nil, err
	}

	ctxStore := ctxmodel.NewStore(clock)
	log := audit.NewLog(clock)
	var auditStore *store.AuditStore
	if opts.DataDir != "" {
		var err error
		auditStore, err = store.OpenAudit(filepath.Join(opts.DataDir, "audit"), store.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: audit store: %w", err)
		}
		// Prime the fresh log with the recovered chain head and persist
		// everything it commits from here on: the tamper-evident chain is
		// contiguous across the restart.
		if err := auditStore.AttachLog(log); err != nil {
			auditStore.Close()
			return nil, fmt.Errorf("core: audit store: %w", err)
		}
	}
	bus := sbus.NewShardedBus(name, opts.Shards, acl, ctxStore, log)
	if opts.Resolver != nil {
		// Challenge 1: federated peers may advertise tags this domain has
		// never encountered. Admit an inbound context only when every tag
		// resolves in the global namespace (cached after first sight).
		resolver := opts.Resolver
		bus.SetAdmissionPolicy(func(ctx ifc.SecurityContext) error {
			requester := ifc.PrincipalID(name)
			if _, err := resolver.ResolveLabel(requester, ctx.Secrecy); err != nil {
				return err
			}
			_, err := resolver.ResolveLabel(requester, ctx.Integrity)
			return err
		})
	}

	tpm, err := attest.NewTPM(name)
	if err != nil {
		if auditStore != nil {
			auditStore.Close()
		}
		return nil, err
	}
	if err := tpm.Extend(0, []byte("lciot-domain:"+name)); err != nil {
		if auditStore != nil {
			auditStore.Close()
		}
		return nil, err
	}

	d := &Domain{
		name:       name,
		bus:        bus,
		store:      ctxStore,
		log:        log,
		tpm:        tpm,
		verifier:   attest.NewVerifier(1),
		resolver:   opts.Resolver,
		clock:      clock,
		onAlert:    opts.OnAlert,
		auditStore: auditStore,
		dataDir:    opts.DataDir,
		diagStop:   make(chan struct{}),
		oblSched:   obligation.NewScheduler(time.Second, 16),
		prov:       &audit.Graph{},
	}
	if len(opts.Jurisdiction) > 0 {
		jur, err := ifc.NewLabel(opts.Jurisdiction...)
		if err != nil {
			if auditStore != nil {
				auditStore.Close()
			}
			return nil, fmt.Errorf("core: jurisdiction: %w", err)
		}
		bus.SetJurisdiction(jur)
	}
	// The obligation sink feeds the provenance graph and schedules
	// retention deadlines off every allowed flow (see obligations.go).
	log.AddSink(d.obligationSink)
	// Dispatch lanes track the bus's shard count: each shard dispatcher
	// feeds the CEP lane holding its components' patterns, and the policy
	// engine's trigger index is partitioned the same way, so the whole
	// detection → policy → obligation pipeline runs in parallel per shard.
	lanes := opts.Shards
	if lanes < 1 {
		lanes = 1
	}
	d.eng = policy.NewEngine(ctxStore, d.execute,
		policy.WithEngineClock(clock),
		policy.WithDispatchLanes(lanes),
		policy.WithConflictHandler(func(c policy.Conflict) {
			d.mu.Lock()
			d.conflicts = append(d.conflicts, c)
			d.mu.Unlock()
			if opts.OnConflict != nil {
				opts.OnConflict(c)
			}
		}),
	)
	d.cep = cep.NewShardedEngine(lanes, func(det cep.Detection) {
		// Erasure triggers first: a pattern like "subject-erasure" must
		// purge before any rule reacts to (and possibly re-propagates)
		// the detection. The sharded engine invokes this handler outside
		// its lane locks, so the purge inside eraseTag is deadlock-free.
		d.handleEraseTriggers(det.Pattern)
		for _, e := range d.eng.HandleDetection(det) {
			d.auditPolicyError(e)
		}
	})

	// Context changes feed the policy engine synchronously (deterministic
	// evaluation order); a rule that sets an attribute it triggers on must
	// converge through its own guard, as in the paper's feedback loop.
	ctxStore.AddHook(func(change ctxmodel.Change) {
		for _, e := range d.eng.HandleContextChange(change) {
			d.auditPolicyError(e)
		}
	})
	registerDomainMetrics(d)
	return d, nil
}

// Name returns the domain name.
func (d *Domain) Name() string { return d.name }

// Bus exposes the domain's messaging substrate.
func (d *Domain) Bus() *sbus.Bus { return d.bus }

// Store exposes the domain's context store.
func (d *Domain) Store() *ctxmodel.Store { return d.store }

// Log exposes the domain's audit log.
func (d *Domain) Log() *audit.Log { return d.log }

// AuditStore exposes the durable audit store (nil unless Options.DataDir
// was set).
func (d *Domain) AuditStore() *store.AuditStore { return d.auditStore }

// OffloadAudit moves the in-memory audit records to the disk tier: it
// waits until everything the log has committed is durable, then prunes
// the log. Without a DataDir it is a no-op returning 0.
func (d *Domain) OffloadAudit() (int, error) {
	if d.auditStore == nil {
		return 0, nil
	}
	return d.auditStore.Offload(d.log)
}

// Close flushes and closes the domain's durable resources. The domain
// remains usable for in-memory work afterwards, but nothing further is
// persisted. Close is idempotent and safe against concurrent Tick /
// SweepObligations: it waits out any in-flight sweep before closing the
// store, and later sweeps observe the closed flag and do nothing. It also
// cuts short and waits out an in-flight diagnostic capture; none starts
// afterwards. Repeat calls return the first call's result.
func (d *Domain) Close() error {
	d.closeOnce.Do(func() {
		d.closed.Store(true)
		d.diagMu.Lock()
		close(d.diagStop)
		d.diagMu.Unlock()
		d.diagWG.Wait()
		// Barrier: an in-flight sweep holds sweepMu; once we acquire and
		// release it, every subsequent sweep sees the closed flag before
		// touching the store.
		d.sweepMu.Lock()
		d.sweepMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
		d.bus.Close()
		if d.auditStore == nil {
			return
		}
		d.log.Flush()
		d.closeErr = d.auditStore.Close()
	})
	return d.closeErr
}

// PolicyEngine exposes the domain's policy engine.
func (d *Domain) PolicyEngine() *policy.Engine { return d.eng }

// Devices exposes the domain's device registry.
func (d *Domain) Devices() *device.Registry { return &d.devices }

// TPM exposes the domain's trusted platform module.
func (d *Domain) TPM() *attest.TPM { return d.tpm }

// LoadPolicy parses and installs policy source: ECA rules go to the
// policy engine; obligation clauses are compiled into the obligation
// table, with retention deadlines for already-persisted data rescheduled
// from the durable store.
func (d *Domain) LoadPolicy(src string) error {
	set, err := policy.Parse(src)
	if err != nil {
		return err
	}
	// Compile before installing anything: a compile error must leave the
	// engine, the obligation table and the audit trail untouched — a
	// half-installed policy that the caller believes failed is worse than
	// either outcome. Loading *replaces* both halves: the rule set (as it
	// always did) and the obligation table, so removing a clause from the
	// source actually retires the duty.
	tab, err := obligation.Compile(set.Obligations)
	if err != nil {
		return err
	}
	d.eng.Load(set)
	d.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
		Note: fmt.Sprintf("policy loaded: %d rules, %d obligations", len(set.Rules), len(set.Obligations)),
	})
	return d.installObligations(tab)
}

// InstallGate installs a declassifier/endorser gate into the domain's bus
// (under the policy engine's authority) and audits the reconfiguration.
// Installation advances the gate registry's generation, invalidating every
// cached flow-routability decision, so a previously cached "no route"
// between two contexts is re-derived — and may flip to "bridgeable" — on
// the next check.
func (d *Domain) InstallGate(g *ifc.Gate) error {
	return d.bus.InstallGate(PolicyEnginePrincipal, g)
}

// RemoveGate removes an installed gate, again invalidating cached routes.
func (d *Domain) RemoveGate(name string) error {
	return d.bus.RemoveGate(PolicyEnginePrincipal, name)
}

// Gates exposes the domain's gate registry.
func (d *Domain) Gates() *ifc.GateRegistry { return d.bus.Gates() }

// RegisterPattern adds a CEP pattern whose detections drive policy.
// Patterns declaring their sources (cep.SourceAffine, as the built-ins
// do) are homed on the dispatch lane their sources hash to; undeclared
// or cross-lane patterns land in the broadcast set.
func (d *Domain) RegisterPattern(p cep.Pattern) {
	d.cep.Register(p)
}

// FeedEvent pushes one event into detection (and so, possibly, into
// policy-driven reconfiguration). Feeders whose sources live on
// different lanes run in parallel; the CEP engine locks per lane.
func (d *Domain) FeedEvent(e cep.Event) {
	d.cep.Feed(e)
}

// Tick advances time-driven machinery: CEP absence patterns, policy
// timers, break-glass expiry, and the obligation sweep (retention expiry
// and the erasure it triggers). Ticking a closed domain is a no-op.
func (d *Domain) Tick() {
	if d.closed.Load() {
		return
	}
	d.cep.Advance(d.clock())
	for _, e := range d.eng.Tick() {
		d.auditPolicyError(e)
	}
	d.SweepObligations()
}

// Alerts returns the policy alerts raised so far.
func (d *Domain) Alerts() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.alerts))
	copy(out, d.alerts)
	return out
}

// Conflicts returns the policy conflicts observed so far.
func (d *Domain) Conflicts() []policy.Conflict {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]policy.Conflict, len(d.conflicts))
	copy(out, d.conflicts)
	return out
}

// auditPolicyError records a failed policy evaluation or action.
func (d *Domain) auditPolicyError(e policy.Error) {
	d.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
		Agent: PolicyEnginePrincipal, Note: "policy error: " + e.Error(),
	})
}

// execute is the policy-action executor: the junction where decisions
// become mechanism (Fig. 1's "enforcement point").
func (d *Domain) execute(a policy.Action) error {
	switch x := a.(type) {
	case policy.AlertAction:
		d.mu.Lock()
		d.alerts = append(d.alerts, x.Message)
		cb := d.onAlert
		d.mu.Unlock()
		d.log.AppendAsync(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
			Agent: PolicyEnginePrincipal, Note: "alert: " + x.Message,
		})
		if cb != nil {
			cb(x.Message)
		}
		return nil
	case policy.ConnectAction:
		err := d.bus.Connect(PolicyEnginePrincipal, x.From, x.To)
		if err == nil {
			if _, active := d.eng.OverrideActive(); active {
				d.log.AppendAsync(audit.Record{
					Kind: audit.BreakGlass, Layer: audit.LayerPolicy, Domain: d.name,
					Src: ifc.EntityID(x.From), Dst: ifc.EntityID(x.To),
					Agent: PolicyEnginePrincipal,
					Note:  "connection established under break-glass override",
				})
			}
		}
		return err
	case policy.DisconnectAction:
		return d.bus.Disconnect(PolicyEnginePrincipal, x.From, x.To)
	case policy.SetContextAction:
		return d.bus.SetComponentContext(PolicyEnginePrincipal, x.Target, x.Ctx)
	case policy.GrantAction:
		return d.bus.GrantPrivileges(PolicyEnginePrincipal, x.Target, x.Privs)
	case policy.SetCtxAction:
		// The engine already applied the value to the context store; the
		// executor only audits the decision.
		d.log.AppendAsync(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
			Agent: PolicyEnginePrincipal, Note: "context set: " + x.String(),
		})
		return nil
	case policy.QuarantineAction:
		return d.bus.Quarantine(PolicyEnginePrincipal, x.Target, true)
	case policy.ActuateAction:
		act, err := d.devices.Actuator(x.Device)
		if err != nil {
			return err
		}
		if err := act.Apply(x.Command, x.Value); err != nil {
			d.log.AppendAsync(audit.Record{
				Kind: audit.FlowDenied, Layer: audit.LayerPolicy, Domain: d.name,
				Dst: ifc.EntityID(x.Device), Agent: PolicyEnginePrincipal,
				Note: "actuation refused: " + err.Error(),
			})
			return err
		}
		d.log.AppendAsync(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
			Dst: ifc.EntityID(x.Device), Agent: PolicyEnginePrincipal,
			Note: fmt.Sprintf("actuated %s %s=%g", x.Device, x.Command, x.Value),
		})
		return nil
	default:
		return fmt.Errorf("core: unknown action %T", a)
	}
}

// EnrollPeer registers a peer domain's TPM endorsement key so Federate can
// attest it (out-of-band provisioning in a real deployment).
func (d *Domain) EnrollPeer(name string, endorsementKey []byte) {
	d.verifier.Enroll(name, endorsementKey)
}

// Federate links this domain's bus to a peer over the network, after
// remote attestation of the peer's platform (Challenge 5: trusted
// enforcement before interaction). The attestation policy may pin PCR
// values and a geographic region.
func (d *Domain) Federate(network transport.Network, addr string,
	peer *attest.TPM, pol attest.Policy) (string, error) {
	if err := d.verifier.Attest(peer, []int{0}, pol); err != nil {
		d.log.AppendAsync(audit.Record{
			Kind: audit.FlowDenied, Layer: audit.LayerPolicy, Domain: d.name,
			Dst: ifc.EntityID(peer.DeviceID()), Note: "federation refused: " + err.Error(),
		})
		return "", fmt.Errorf("%w: %v", ErrAttestation, err)
	}
	peerName, err := d.bus.LinkTo(network, addr)
	if err != nil {
		return "", err
	}
	d.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
		Dst: ifc.EntityID(peerName), Note: "federated with peer domain (attested)",
	})
	return peerName, nil
}

// Serve accepts federation links from peers on the listener.
func (d *Domain) Serve(listener transport.Listener) { d.bus.Serve(listener) }

// LinkStatus snapshots the domain's cross-bus links: state (up /
// reconnecting / closed), egress queue depth and resume count per peer.
func (d *Domain) LinkStatus() []sbus.LinkStatus { return d.bus.LinkStatus() }

// LinkPeer dials a peer domain's bus, retrying with a linear backoff until
// the peer answers or the wait budget runs out — at boot, federated nodes
// come up in arbitrary order. Once established, the link self-heals (see
// the sbus link protocol); LinkPeer only covers the initial dial. Unlike
// Federate it performs no attestation, which is what a deployment without
// provisioned TPM endorsement keys (e.g. the lciotd daemon) uses.
func (d *Domain) LinkPeer(network transport.Network, addr string, wait time.Duration) (string, error) {
	// Wall-clock deliberately, not d.clock(): the retry loop paces itself
	// with real sleeps, and a simulated domain clock would never move the
	// deadline.
	deadline := time.Now().Add(wait)
	for {
		peer, err := d.bus.LinkTo(network, addr)
		if err == nil {
			d.log.AppendAsync(audit.Record{
				Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
				Dst: ifc.EntityID(peer), Note: "federated with peer domain (unattested link)",
			})
			return peer, nil
		}
		if !time.Now().Before(deadline) {
			return "", fmt.Errorf("core: link to %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
