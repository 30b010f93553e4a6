package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"lciot/internal/audit"
	"lciot/internal/cep"
	"lciot/internal/fault"
	"lciot/internal/gateway"
	"lciot/internal/ifc"
	"lciot/internal/obligation"
	"lciot/internal/telemetry"
)

// fpSweep is the chaos seam in the obligation sweep: a delay stalls the
// sweep mid-Tick; an error (or Drop) skips the pass entirely — deadlines
// stay scheduled and must be executed by a later sweep, which is the
// at-least-once property soak drills assert.
var fpSweep = fault.New("core.obligation.sweep")

// This file is the domain-side obligation engine: the glue that turns the
// compiled obligation table (internal/obligation) into enforcement and
// evidence.
//
//   - Scheduling: an audit-log sink watches every allowed flow; a datum
//     whose secrecy label carries a retention-limited tag lands in the
//     sharded deadline scheduler, and the registration is audited as
//     ObligationScheduled (from the sweep loop, never from the sink — a
//     sink must not call back into its own log).
//   - Sweeping: Tick (or SweepObligations directly) pops expired
//     deadlines in batches and executes erasure — one live-state purge
//     and one redaction pass per batch, so a 10k-deadline backlog costs
//     a handful of store scans, not 10k.
//   - Erasure: the datum and every data descendant in the audit graph are
//     purged from live state (context store, CEP windows, gateway
//     buffers/journals) and tombstoned in both audit tiers —
//     chain-preserving, so auditview still verifies end to end.
//   - Resumption: the scheduler is memory-only; after a restart,
//     rebuildObligations rescans the durable store and reschedules every
//     live (non-redacted) datum, so sweeps resume from the WAL with no
//     second durability mechanism.

// obligationSweepBatch bounds the deadlines executed per sweep pass so a
// Tick never stalls behind an unbounded backlog.
const obligationSweepBatch = 4096

// ObligationTable returns the domain's compiled obligation table (nil
// until a policy with obligation clauses is loaded).
func (d *Domain) ObligationTable() *obligation.Table { return d.oblTab.Load() }

// ApplyObligations attaches the compiled residency/purpose facets of every
// obligated secrecy tag to the context — the hook callers use when
// labelling data sources, so the hot-path flow rule enforces residency and
// purpose limitation from then on.
func (d *Domain) ApplyObligations(ctx ifc.SecurityContext) ifc.SecurityContext {
	return d.oblTab.Load().Apply(ctx)
}

// Provenance exposes the domain's incrementally maintained audit graph
// (fed by a log sink; erasure and subject-access queries read it).
func (d *Domain) Provenance() *audit.Graph { return d.prov }

// ObligationBacklog returns the number of retention deadlines currently
// tracked by the scheduler.
func (d *Domain) ObligationBacklog() int { return d.oblSched.Len() }

// AttachGateway registers a gateway for erasure propagation: erasure
// purges the erased subject's buffered readings and journal entries on
// every attached gateway.
func (d *Domain) AttachGateway(g *gateway.Gateway) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.oblGateways = append(d.oblGateways, g)
}

// obligationSink is the audit-log sink half of scheduling: it feeds the
// provenance graph and registers a retention deadline for every allowed
// flow of a retention-limited datum. It runs on the log's hasher
// goroutine, so it only touches the scheduler and the announcement queue;
// audit records for the schedule actions are appended by the sweep loop.
func (d *Domain) obligationSink(r audit.Record) {
	d.prov.Append([]audit.Record{r})
	tab := d.oblTab.Load()
	if tab == nil || r.Kind != audit.FlowAllowed || r.DataID == "" || r.Redacted {
		return
	}
	retain, tag, ok := tab.Retention(r.SrcCtx.Secrecy)
	if !ok {
		return
	}
	e := obligation.Entry{Tag: tag, DataID: r.DataID, Seq: r.Seq, Due: r.Time.Add(retain)}
	if d.oblSched.Schedule(e) {
		d.mu.Lock()
		d.oblPending = append(d.oblPending, e)
		d.mu.Unlock()
	}
}

// installObligations swaps in a compiled table (possibly empty — loading
// a policy without obligation clauses retires every standing duty),
// audits the load, retires deadlines whose tag lost its retention limit,
// and rebuilds the scheduler from the durable store (LoadPolicy calls
// it).
func (d *Domain) installObligations(tab *obligation.Table) error {
	d.oblTab.Store(tab)
	stale := func(e obligation.Entry) bool {
		s, ok := tab.Lookup(e.Tag)
		return !ok || s.Retain <= 0
	}
	dropped := d.oblSched.PurgeIf(stale)
	d.mu.Lock()
	keptPending := d.oblPending[:0]
	for _, e := range d.oblPending {
		if !stale(e) {
			keptPending = append(keptPending, e)
		}
	}
	d.oblPending = keptPending
	d.mu.Unlock()
	if tab.Len() > 0 || dropped > 0 {
		d.log.AppendAsync(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerPolicy, Domain: d.name,
			Agent: PolicyEnginePrincipal,
			Note: fmt.Sprintf("obligations loaded: %d tags under management, %d retired deadlines dropped",
				tab.Len(), dropped),
		})
	}
	return d.rebuildObligations(tab)
}

// rebuildObligations rescans the durable store and reschedules retention
// deadlines for every live (non-redacted) datum under a retention-limited
// tag. Already-expired deadlines land in the past and are popped by the
// next sweep — exactly where a crash mid-sweep left off.
func (d *Domain) rebuildObligations(tab *obligation.Table) error {
	if d.auditStore == nil || tab == nil || !tab.HasRetention() {
		return nil
	}
	rebuilt := 0
	err := d.auditStore.Read(d.auditStore.FirstSeq(), 0, func(r audit.Record) error {
		if r.Kind != audit.FlowAllowed || r.DataID == "" || r.Redacted {
			return nil
		}
		retain, tag, ok := tab.Retention(r.SrcCtx.Secrecy)
		if !ok {
			return nil
		}
		if d.oblSched.Schedule(obligation.Entry{
			Tag: tag, DataID: r.DataID, Seq: r.Seq, Due: r.Time.Add(retain),
		}) {
			rebuilt++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: obligation rebuild: %w", err)
	}
	if rebuilt > 0 {
		d.log.AppendAsync(audit.Record{
			Kind: audit.ObligationScheduled, Layer: audit.LayerPolicy, Domain: d.name,
			Agent: PolicyEnginePrincipal,
			Note:  fmt.Sprintf("obligation sweep resumed from store: %d retention deadlines rescheduled", rebuilt),
		})
	}
	return nil
}

// Sweep telemetry: pass duration and deadlines executed. The backlog
// gauge lives with the domain wiring since it is per-domain state.
var (
	sweepHist   = telemetry.NewHistogram("core_obligation_sweep_ns")
	oblExecuted = telemetry.NewCounter("core_obligations_executed_total")
)

// SweepObligations drains scheduling announcements into the audit log and
// executes every retention deadline due at the domain clock, in batches.
// It returns the number of deadlines executed. Tick calls it; daemons may
// also call it directly on their own cadence. Sweeping a closed domain is
// a no-op: sweepMu pairs with the barrier in Close, so a sweep never
// touches a store that is shutting down underneath it.
func (d *Domain) SweepObligations() int {
	start := sweepHist.Start()
	d.sweepMu.Lock()
	defer d.sweepMu.Unlock()
	if d.closed.Load() {
		return 0
	}
	if act := fpSweep.Check(); act != nil {
		act.Wait()
		if act.Err != nil || act.Drop {
			// Skipped pass: deadlines stay scheduled for the next sweep.
			return 0
		}
	}
	d.mu.Lock()
	pending := d.oblPending
	d.oblPending = nil
	d.mu.Unlock()
	for _, e := range pending {
		d.log.AppendAsync(audit.Record{
			Kind: audit.ObligationScheduled, Layer: audit.LayerPolicy, Domain: d.name,
			DataID: e.DataID, Agent: PolicyEnginePrincipal,
			Note: fmt.Sprintf("retention deadline %s (tag %s)", e.Due.UTC().Format(time.RFC3339), e.Tag),
		})
	}

	now := d.clock()
	executed := 0
	defer func() {
		oblExecuted.Add(uint64(executed))
		sweepHist.ObserveSince(start)
	}()
	for {
		batch := d.oblSched.Due(now, obligationSweepBatch)
		if len(batch) == 0 {
			return executed
		}
		items := make([]eraseItem, len(batch))
		for i, e := range batch {
			items[i] = eraseItem{tag: e.Tag, dataID: e.DataID}
		}
		// Retention expiry is per-datum: the expired readings (and their
		// derivations) go, but the subject's *current* state — context
		// attributes, CEP windows, gateway buffers fed by still-retained
		// data — stays. Only an erasure request wipes the subject.
		d.eraseMany(items, "retention expired", false)
		executed += len(batch)
		if len(batch) < obligationSweepBatch {
			return executed
		}
	}
}

// An eraseItem is one datum to erase under one obligated tag.
type eraseItem struct {
	tag    ifc.Tag
	dataID string
}

// subjectOf maps a provenance DataID to its subject prefix: readings carry
// IDs of the form "device/metric/seq", and live state (context attributes,
// CEP events, gateway buffers) is keyed by the device/subject.
func subjectOf(dataID string) string {
	if i := strings.IndexByte(dataID, '/'); i > 0 {
		return dataID[:i]
	}
	return dataID
}

// EraseData erases one datum under an obligation (an explicit erasure
// request): live-state purge for its subject, deadline cancellation, and
// provenance-guided chain-preserving redaction of the datum and every
// data item derived from it, in both audit tiers.
func (d *Domain) EraseData(tag ifc.Tag, dataID, reason string) {
	d.eraseMany([]eraseItem{{tag: tag, dataID: dataID}}, reason, true)
}

// eraseMany is the batched erasure engine behind EraseData, EraseTag and
// the retention sweep: targets are expanded through provenance once, live
// state is purged once, and both audit tiers are redacted in one pass.
// purgeSubjects distinguishes the two legal grounds: an erasure request
// (right to be forgotten) wipes everything keyed under the data subjects,
// while retention expiry purges only the expired data items themselves —
// the subject's state derived from still-retained data is untouched.
// Every obligation action leaves evidence: ObligationExecuted per datum,
// one Redaction record for the tombstone pass, ObligationRefused when a
// tier could not be redacted. eraseMany is safe from any caller —
// including the CEP detection handler (erase-on-event), because the
// sharded CEP engine runs handlers outside its lane locks and Purge
// locks lane-at-a-time.
func (d *Domain) eraseMany(items []eraseItem, reason string, purgeSubjects bool) {
	if len(items) == 0 {
		return
	}
	// The provenance graph is fed by the log's sink: commit every staged
	// flow first, or a derivation still in staging escapes the expansion
	// below and survives the erasure untombstoned.
	d.log.Flush()
	// A datum is scheduled under its *tightest*-retention tag, which may
	// not be the tag it is being erased under — cancel across every
	// retention-limited tag so no stale deadline survives to fire (and
	// fabricate ObligationExecuted evidence) later.
	var retentionTags []ifc.Tag
	if tab := d.oblTab.Load(); tab != nil {
		for _, tag := range tab.Tags() {
			if s, ok := tab.Lookup(tag); ok && s.Retain > 0 {
				retentionTags = append(retentionTags, tag)
			}
		}
	}
	// Expand each datum through the provenance graph (memoized) and build
	// the union of redaction targets and live-state subjects.
	targets := make(map[string]bool, len(items))
	subjects := make(map[string]bool)
	derived := make([]int, len(items))
	for i, it := range items {
		n := 0
		add := func(id string) {
			targets[id] = true
			subjects[subjectOf(id)] = true
			d.oblSched.Cancel(it.tag, id)
			for _, tag := range retentionTags {
				if tag != it.tag {
					d.oblSched.Cancel(tag, id)
				}
			}
			n++
		}
		add(it.dataID)
		if desc, err := d.prov.Descendants(it.dataID); err == nil {
			for _, id := range desc {
				if node, ok := d.prov.Node(id); ok && node.Kind == audit.NodeData {
					add(id)
				}
			}
		}
		derived[i] = n
	}

	// Live state. An erasure request purges everything keyed under the
	// subjects (context attributes, CEP window events, gateway buffers and
	// journals); retention expiry only touches state keyed by the expired
	// data items themselves.
	ctxPurged := d.store.DeleteMatching(func(key string) bool {
		if targets[key] {
			return true
		}
		if !purgeSubjects {
			return false
		}
		if subjects[key] {
			return true
		}
		for s := range subjects {
			if strings.HasPrefix(key, s+"/") {
				return true
			}
		}
		return false
	})
	cepPred := func(e cep.Event) bool {
		return targets[e.Source] || (purgeSubjects && subjects[e.Source])
	}
	cepPurged := d.cep.Purge(cepPred)
	d.mu.Lock()
	gws := append([]*gateway.Gateway(nil), d.oblGateways...)
	// Drop queued schedule announcements for the erased data: draining
	// them later would append fresh records naming the erased identifiers.
	keptPending := d.oblPending[:0]
	for _, e := range d.oblPending {
		if !targets[e.DataID] {
			keptPending = append(keptPending, e)
		}
	}
	d.oblPending = keptPending
	d.mu.Unlock()
	gwPurged := 0
	if purgeSubjects {
		for _, g := range gws {
			for s := range subjects {
				n, err := g.EraseDevice(s)
				if err != nil {
					d.log.AppendAsync(audit.Record{
						Kind: audit.ObligationRefused, Layer: audit.LayerPolicy, Domain: d.name,
						Agent: PolicyEnginePrincipal,
						Note:  "gateway erasure failed: " + err.Error(),
					})
					continue
				}
				gwPurged += n
			}
		}
	}

	// Provenance-guided redaction across both audit tiers, one pass.
	redacted, refused := d.redactTargets(targets, reason)
	// The erased data must not remain queryable from the live provenance
	// graph either: its nodes (and every touching edge) go with it. The
	// Descendants expansion above already happened, so ordering is safe.
	d.prov.RemoveNodes(targets)

	// Evidence records deliberately carry no DataID: naming the erased
	// datum in a fresh live record would re-introduce the identifier the
	// tombstones just removed.
	for i, it := range items {
		d.log.AppendAsync(audit.Record{
			Kind: audit.ObligationExecuted, Layer: audit.LayerPolicy, Domain: d.name,
			Agent: PolicyEnginePrincipal,
			Note:  fmt.Sprintf("erased (%s, tag %s): %d data items including derivations", reason, it.tag, derived[i]),
		})
	}
	d.log.AppendAsync(audit.Record{
		Kind: audit.Redaction, Layer: audit.LayerPolicy, Domain: d.name,
		Agent: PolicyEnginePrincipal,
		Note: fmt.Sprintf("tombstoned %d records for %d erased data items (%s); live state purged (ctx %d, cep %d, gateway %d)",
			redacted, len(targets), reason, ctxPurged, cepPurged, gwPurged),
	})
	if refused > 0 {
		d.log.AppendAsync(audit.Record{
			Kind: audit.ObligationRefused, Layer: audit.LayerPolicy, Domain: d.name,
			Agent: PolicyEnginePrincipal,
			Note:  fmt.Sprintf("%d records could not be tombstoned (%s)", refused, reason),
		})
	}
}

// redactTargets tombstones every record whose DataID is in targets, in the
// in-memory log and the durable store, returning the number of distinct
// sequence numbers tombstoned and the number of failures. Store targets
// are pinned before redaction so MaxSegments retention cannot race the
// rewrite. The two tiers share sequence numbering, so the same seq
// tombstoned in both counts once.
func (d *Domain) redactTargets(targets map[string]bool, reason string) (redacted, refused int) {
	note := "redacted: " + reason
	distinct := make(map[uint64]bool)
	var memSeqs []uint64
	for _, r := range d.log.Select(func(r audit.Record) bool {
		return !r.Redacted && r.DataID != "" && targets[r.DataID]
	}) {
		memSeqs = append(memSeqs, r.Seq)
	}
	d.log.RedactMany(memSeqs, note)
	for _, seq := range memSeqs {
		distinct[seq] = true
	}
	if d.auditStore != nil {
		var storeSeqs []uint64
		var pins []func()
		err := d.auditStore.Read(d.auditStore.FirstSeq(), 0, func(r audit.Record) error {
			if !r.Redacted && r.DataID != "" && targets[r.DataID] {
				storeSeqs = append(storeSeqs, r.Seq)
				pins = append(pins, d.auditStore.Pin(r.Seq))
			}
			return nil
		})
		if err != nil {
			refused++
		}
		// One batched pass: each affected segment is rewritten once for
		// the whole erasure, however many records it tombstones.
		if n, err := d.auditStore.RedactMany(storeSeqs, note); err != nil {
			refused += len(storeSeqs) - n
		} else {
			for _, seq := range storeSeqs {
				distinct[seq] = true
			}
		}
		for _, release := range pins {
			release()
		}
	}
	return len(distinct), refused
}

// EraseTag executes a right-to-erasure request for everything under a tag:
// every live datum whose flow was recorded under the tag (in either audit
// tier) is erased, with provenance-guided propagation per datum. reason
// lands in the evidence trail. Returns the number of data items erased.
func (d *Domain) EraseTag(tag ifc.Tag, reason string) int {
	return d.eraseTag(tag, reason)
}

// eraseTag implements EraseTag.
func (d *Domain) eraseTag(tag ifc.Tag, reason string) int {
	ids := map[string]bool{}
	collect := func(r audit.Record) {
		if r.Kind == audit.FlowAllowed && !r.Redacted && r.DataID != "" &&
			(r.SrcCtx.Secrecy.Has(tag) || r.DstCtx.Secrecy.Has(tag)) {
			ids[r.DataID] = true
		}
	}
	for _, r := range d.log.Select(nil) {
		collect(r)
	}
	if d.auditStore != nil {
		_ = d.auditStore.Read(d.auditStore.FirstSeq(), 0, func(r audit.Record) error {
			collect(r)
			return nil
		})
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	items := make([]eraseItem, len(sorted))
	for i, id := range sorted {
		items[i] = eraseItem{tag: tag, dataID: id}
	}
	d.eraseMany(items, reason, true)
	d.log.AppendAsync(audit.Record{
		Kind: audit.ObligationExecuted, Layer: audit.LayerPolicy, Domain: d.name,
		Agent: PolicyEnginePrincipal,
		Note:  fmt.Sprintf("tag %s erased (%s): %d data items", tag, reason, len(sorted)),
	})
	return len(sorted)
}

// handleEraseTriggers fires the erase-on clauses matching a detection
// pattern. It is called from the CEP detection handler (outside the
// engine's lane locks) before policy evaluation.
func (d *Domain) handleEraseTriggers(pattern string) {
	tab := d.oblTab.Load()
	if tab == nil {
		return
	}
	for _, tag := range tab.EraseTriggers(pattern) {
		d.eraseTag(tag, "erase on "+pattern)
	}
}
