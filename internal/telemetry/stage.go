// Stage attribution: per-message stage clocks that attribute end-to-end
// latency to the pipeline's edges. A StageClock is armed at publish (head
// sampled, like flow traces) and carried on the message next to the trace
// context; each hop point swaps "now" into the clock and records the delta
// since the previous hop into that edge's histogram. Because every edge
// observation is a telescoping difference off one shared clock, the edge
// sums add up exactly to the last hop minus the arm time — a property the
// tests pin — and the dark path (sampling off, the default) costs a single
// atomic load per publish.
//
// The four local edges:
//
//	stage_publish_deliver_ns   publish        → bus delivery (sink handler entry)
//	stage_deliver_detect_ns    bus delivery   → CEP detection fired
//	stage_detect_decide_ns     CEP detection  → policy decision evaluated
//	stage_decide_audit_ns      policy decide  → audit record committed (async)
//
// plus one federated edge per peer, stage_link_hop_ns{bus,peer}, observed
// at link ingress from the egress timestamp the link frame trailer carries
// (cross-node wall clocks, so subject to inter-host clock skew — compare
// trends, not absolutes). The decide→audit edge is observed on the audit
// drain goroutine when the staged record commits; commit can race ahead of
// a later mark on a busy pipeline, in which case the clamped-at-zero
// observation still keeps the telescoping sum exact.
package telemetry

import (
	"sync/atomic"
	"time"
)

// Stage-clock head sampling, the same shape as flow-trace sampling: every
// n-th publish arms a clock; 0 (the default) disables arming entirely.
var (
	stageEvery atomic.Uint64
	stageTick  atomic.Uint64
)

// SetStageSampling arms stage attribution on every n-th publish; n <= 0
// disables it (the default — a disabled publish costs one atomic load).
func SetStageSampling(n int) {
	if n <= 0 {
		stageEvery.Store(0)
		return
	}
	stageEvery.Store(uint64(n))
}

// StageSampling reports the current stage-clock sampling rate (0 = off).
func StageSampling() int { return int(stageEvery.Load()) }

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

// A StageClock rides one sampled message through the pipeline. All methods
// are nil-receiver safe, so call sites mark unconditionally on the pointer
// they carry. The clock is shared by reference across message clones
// (Quench, relay republish) and across the async audit hand-off, hence the
// atomic last-mark slot.
type StageClock struct {
	armNs int64
	last  atomic.Int64
}

// ArmStageClock returns a clock for this publish, or nil when stage
// sampling is off or this publish falls outside the 1-in-N sample. The
// off path is one atomic load.
func ArmStageClock() *StageClock {
	n := stageEvery.Load()
	if n == 0 {
		return nil
	}
	if n > 1 && stageTick.Add(1)%n != 0 {
		return nil
	}
	return ResumeStageClock(time.Now().UnixNano())
}

// ResumeStageClock builds an armed clock starting at nowNs. Link ingress
// uses it to continue attribution on the receiving node: the sampling
// decision was made at the original publish, so resume bypasses it.
func ResumeStageClock(nowNs int64) *StageClock {
	c := &StageClock{armNs: nowNs}
	c.last.Store(nowNs)
	return c
}

// mark swaps now into the clock and records the delta since the previous
// hop point into h.
func (c *StageClock) mark(h *Histogram) {
	if c == nil {
		return
	}
	now := time.Now().UnixNano()
	prev := c.last.Swap(now)
	h.Observe(now - prev)
}

// MarkDeliver records publish→deliver, at sink handler dispatch.
func (c *StageClock) MarkDeliver() { c.mark(stagePublishDeliver) }

// MarkDetect records deliver→cep_detect, when a pattern fires.
func (c *StageClock) MarkDetect() { c.mark(stageDeliverDetect) }

// MarkDecide records detect→policy_decision, after the trigger bucket is
// evaluated.
func (c *StageClock) MarkDecide() { c.mark(stageDetectDecide) }

// MarkAudit records decision→audit_commit, when the staged record joins
// the hash chain on the drain goroutine.
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
