// Stage attribution: per-message stage clocks that attribute end-to-end
// latency to the pipeline's edges. A StageClock is part of the flow trace:
// StartTrace arms one whenever it samples a publish, so -trace-sample is
// the one rate for both, and the clock rides the message inside its
// TraceContext. Each hop point advances the clock to "now" and records the
// delta since the previous hop into that edge's histogram. Because every
// edge observation is a telescoping difference off one shared clock, the
// edge sums add up exactly to the last hop minus the arm time — a property
// the tests pin.
//
// The four local edges:
//
//	stage_publish_deliver_ns   publish        → bus delivery (sink handler entry)
//	stage_deliver_detect_ns    bus delivery   → CEP detection fired
//	stage_detect_decide_ns     CEP detection  → policy decision evaluated
//	stage_decide_audit_ns      previous mark  → audit record committed (async)
//
// plus one federated edge per peer, stage_link_hop_ns{bus,peer}, observed
// at link ingress from the egress timestamp the link frame trailer carries
// (cross-node wall clocks, so subject to inter-host clock skew — compare
// trends, not absolutes). The audit edge closes at the commit of any
// record that carries the clock, delivery records included, on the audit
// drain goroutine. Marks race — fan-out deliveries on several shards, the
// drain's commit against a handler's mark — so a mark never moves the
// clock backwards: one that reads a time at or before the last mark
// observes 0 and leaves the clock where it is, which keeps the sum exact.
package telemetry

import (
	"sync/atomic"
	"time"
)

// The per-edge histograms. Registered once in the default registry;
// sbus/cep/policy/audit mark into them through StageClock methods.
var (
	stagePublishDeliver = NewHistogram("stage_publish_deliver_ns")
	stageDeliverDetect  = NewHistogram("stage_deliver_detect_ns")
	stageDetectDecide   = NewHistogram("stage_detect_decide_ns")
	stageDecideAudit    = NewHistogram("stage_decide_audit_ns")
)

// StageEdges lists the local edge metric names in pipeline order (the
// per-peer stage_link_hop_ns series are registered per link).
func StageEdges() []string {
	return []string{
		"stage_publish_deliver_ns",
		"stage_deliver_detect_ns",
		"stage_detect_decide_ns",
		"stage_decide_audit_ns",
	}
}

// A StageClock rides one sampled message through the pipeline in its
// TraceContext. All methods are nil-receiver safe, so call sites mark
// unconditionally on the pointer they carry. The clock is shared by
// reference by every sink a delivery reaches, on any shard, by the copies
// a message goes through (a sampled publish's traced copy, a quench that
// removes an attribute) and by the async audit hand-off, hence the atomic
// last-mark slot.
type StageClock struct {
	armNs int64
	last  atomic.Int64
}

// ResumeStageClock builds an armed clock starting at nowNs. StartTrace
// arms with it, and link ingress uses it to continue attribution on the
// receiving node: the sampling decision was made at the original publish.
func ResumeStageClock(nowNs int64) *StageClock {
	c := &StageClock{armNs: nowNs}
	c.last.Store(nowNs)
	return c
}

// mark advances the clock to now and records the delta since the previous
// hop point into h. A concurrent mark may already have moved the clock past
// now; then this one observes 0 and the clock keeps the later time.
func (c *StageClock) mark(h *Histogram) {
	if c == nil {
		return
	}
	now := time.Now().UnixNano()
	prev := c.last.Load()
	for prev < now && !c.last.CompareAndSwap(prev, now) {
		prev = c.last.Load()
	}
	h.Observe(now - prev) // clamped to 0 when a concurrent mark got further
}

// MarkDeliver records publish→deliver, at sink handler dispatch.
func (c *StageClock) MarkDeliver() { c.mark(stagePublishDeliver) }

// MarkDetect records deliver→cep_detect, when a pattern fires.
func (c *StageClock) MarkDetect() { c.mark(stageDeliverDetect) }

// MarkDecide records detect→policy_decision, after the trigger bucket is
// evaluated.
func (c *StageClock) MarkDecide() { c.mark(stageDetectDecide) }

// MarkAudit records previous mark→audit_commit, when a staged record that
// carries the clock joins the hash chain on the drain goroutine.
func (c *StageClock) MarkAudit() { c.mark(stageDecideAudit) }

// ArmNs returns the clock's arm time (UnixNano); 0 on a nil clock.
func (c *StageClock) ArmNs() int64 {
	if c == nil {
		return 0
	}
	return c.armNs
}

// LastNs returns the most recent hop-point time (UnixNano); 0 on a nil
// clock. For a quiesced pipeline, LastNs-ArmNs equals the sum of every
// edge observation this clock produced.
func (c *StageClock) LastNs() int64 {
	if c == nil {
		return 0
	}
	return c.last.Load()
}
