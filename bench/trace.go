package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
)

// spanKind names a boundary the benchmark owns. Spans are recorded only in
// this package, around calls into the program's public functions and inside
// the callbacks the program invokes; nothing inside the program is traced.
type spanKind uint8

const (
	spNone    spanKind = iota
	spGen              // message due → generator starts sending it
	spIngest           // gateway.Ingest call
	spPublish          // Component.Publish call
	spSink             // sink handler entry → exit
	spFeed             // Domain.FeedEvent call
	spAlert            // OnAlert callback entered (instant)
	spCommit           // audit sink callback: flow record in the hash chain (instant)
	spDurable          // durable watermark covers the record (instant)
	spRelay            // relay handler entry → re-publish returned
	spControl          // control-plane call (context set, erase, ancestry, sweep, reload)
)

var spanNames = [...]string{
	spNone: "none", spGen: "gen.due_to_send", spIngest: "gateway.ingest", spPublish: "sbus.publish",
	spSink: "sink.handler", spFeed: "core.feed_event", spAlert: "policy.on_alert",
	spCommit: "audit.commit", spDurable: "store.durable", spRelay: "relay.forward",
	spControl: "control.call",
}

// A span is one timed interval at a boundary; spans of one message share id.
// parent names the kind of span that caused this one (the enclosing call for
// nested spans, the preceding boundary for asynchronous ones).
type span struct {
	id         int64
	start, end int64
	kind       spanKind
	parent     spanKind
	lane       int32 // generator, sink or control-op index, by kind
}

// A tracer is a fixed in-memory span buffer filled with one atomic add per
// span and written out when the benchmark ends. A nil tracer records
// nothing, which is how untraced runs pay one pointer test per boundary.
type tracer struct {
	buf []span
	// n reserves slots, done counts slots whose span has been written: a
	// reader that has seen done catch up with n sees every span whole.
	n, done atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{buf: make([]span, capacity)} }

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if int(i) >= len(t.buf) {
		return // full: the buffer is sized for the traced phases, later spans are dropped
	}
	t.buf[i] = s
	t.done.Add(1)
}

// spans returns what has been recorded, waiting out any span a callback is
// still writing.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	n := min(t.n.Load(), int64(len(t.buf)))
	for t.done.Load() < n {
		runtime.Gosched()
	}
	return t.buf[:n]
}

// spanSample is how sparsely spans are written to disk: every message whose
// index is a multiple of it, whole. Aggregates use every span in memory.
const spanSample = 64

// write dumps the sampled spans as JSON lines to dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans() {
		if (s.id&(1<<idShift-1))%spanSample != 0 {
			continue
		}
		fmt.Fprintf(w, `{"name":%q,"id":%d,"start_ns":%d,"end_ns":%d,"parent":%q,"lane":%d}`+"\n",
			spanNames[s.kind], s.id, s.start, s.end, spanNames[s.parent], s.lane)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [start, end] the child intervals cover
// (children may overlap each other and stick out of the parent).
func covered(start, end int64, children [][2]int64) int64 {
	if len(children) == 0 {
		return 0
	}
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	var total int64
	cur := start
	for _, c := range children {
		lo, hi := c[0], c[1]
		if lo < cur {
			lo = cur
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// byMessage groups the spans of one traced open-loop phase by message index.
type byMessage struct {
	p     *phase
	spans [][]span
}

func groupSpans(all []span, p *phase) *byMessage {
	g := &byMessage{p: p, spans: make([][]span, p.n)}
	for _, s := range all {
		if int(s.id>>idShift) != p.idx {
			continue
		}
		i := int(s.id & (1<<idShift - 1))
		if i < p.n {
			g.spans[i] = append(g.spans[i], s)
		}
	}
	return g
}

// pathStats are the per-layer latencies one traced phase yields. All are in
// nanoseconds; empty slices mean the workload has no such boundary.
type pathStats struct {
	callSelf   []float64 // Ingest/Publish call minus the sink handlers nested in it
	inline     []float64 // call start → handler entry, handler on the caller's goroutine
	handoff    []float64 // call start → handler entry, handler on another goroutine
	feedNoDet  []float64 // FeedEvent calls that raised no alert
	feedToAct  []float64 // FeedEvent start → OnAlert entered
	commitLag  []float64 // handler entry → flow record committed
	durableLag []float64 // record committed → durable watermark covers it
	relayFwd   []float64 // relay handler entry → re-publish returned
	// residual is, per sampled delivery, how far the boundary segments
	// (due→send, send→handler) are from summing to the end-to-end latency.
	residualPct []float64
}

// analyse derives pathStats from the spans of one traced phase. callKind is
// the span kind of the call that sends a message (spIngest or spPublish).
func (g *byMessage) analyse(callKind spanKind) *pathStats {
	st := &pathStats{}
	for i, spans := range g.spans {
		var call, gen *span
		var sinks, feeds, alerts, commits, durables []span
		for k := range spans {
			s := &spans[k]
			switch s.kind {
			case callKind:
				call = s
			case spGen:
				gen = s
			case spSink:
				sinks = append(sinks, *s)
			case spFeed:
				feeds = append(feeds, *s)
			case spAlert:
				alerts = append(alerts, *s)
			case spCommit:
				commits = append(commits, *s)
			case spDurable:
				durables = append(durables, *s)
			case spRelay:
				st.relayFwd = append(st.relayFwd, float64(s.end-s.start))
			}
		}
		if call == nil {
			continue
		}
		sort.Slice(sinks, func(a, b int) bool { return sinks[a].start < sinks[b].start })
		var nested [][2]int64
		for _, s := range sinks {
			if s.start >= call.start && s.end <= call.end {
				// Inline: entry latency excludes earlier handlers of the
				// same publish, which ran first on this goroutine.
				st.inline = append(st.inline, float64(s.start-call.start-covered(call.start, s.start, nested)))
				nested = append(nested, [2]int64{s.start, s.end})
			} else {
				st.handoff = append(st.handoff, float64(s.start-call.start))
			}
			if gen != nil && i%spanSample == 0 {
				e2e := float64(s.start - g.p.due(i))
				sum := float64(gen.end-gen.start) + float64(call.start-gen.end) + float64(s.start-call.start)
				if e2e > 0 {
					st.residualPct = append(st.residualPct, 100*math.Abs(sum-e2e)/e2e)
				}
			}
		}
		st.callSelf = append(st.callSelf, float64(call.end-call.start-covered(call.start, call.end, nested)))
		for _, f := range feeds {
			alerted := false
			for _, a := range alerts {
				if a.lane == f.lane && a.start >= f.start && a.start <= f.end {
					st.feedToAct = append(st.feedToAct, float64(a.start-f.start))
					alerted = true
					break
				}
			}
			if !alerted {
				st.feedNoDet = append(st.feedNoDet, float64(f.end-f.start))
			}
		}
		// Flow records commit in delivery order per message closely enough
		// that pairing the k-th commit with the k-th handler entry is exact
		// for single-lane paths and a fair estimate otherwise.
		sort.Slice(commits, func(a, b int) bool { return commits[a].start < commits[b].start })
		for k, c := range commits {
			if k < len(sinks) {
				st.commitLag = append(st.commitLag, float64(c.start-sinks[k].start))
			}
		}
		sort.Slice(durables, func(a, b int) bool { return durables[a].start < durables[b].start })
		for k, d := range durables {
			if k < len(commits) {
				st.durableLag = append(st.durableLag, float64(d.start-commits[k].start))
			}
		}
	}
	return st
}

// setCommon sets the per-layer metrics every workload derives from its
// traced phase the same way.
func (st *pathStats) setCommon(res *results) {
	res.setPct("sbus.inline_p50_us", st.inline, 0.50, 1e3)
	res.setPct("sbus.handoff_p50_us", st.handoff, 0.50, 1e3)
	res.setPct("sbus.handoff_p99_us", st.handoff, 0.99, 1e3)
	res.setPct("audit.commit_lag_p50_us", st.commitLag, 0.50, 1e3)
	res.setPct("audit.commit_lag_p99_us", st.commitLag, 0.99, 1e3)
	res.setPct("store.durable_lag_p50_ms", st.durableLag, 0.50, 1e6)
	res.setPct("store.durable_lag_p99_ms", st.durableLag, 0.99, 1e6)
	res.setPct("trace.attribution_residual_pct", st.residualPct, 0.99, 1)
}
