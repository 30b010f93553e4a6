package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// A metricDef is one named, unit-carrying number. The two lists below are
// the benchmark's whole vocabulary; BENCHMARK.json repeats them with bounds
// and the smoke test fails if the two ever disagree.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a device owner, an operator or a regulator would
// see, defined on every workload (the driver's contract is that every run
// emits every one of them, so metrics only some workloads have live in the
// per-layer list; see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliver_p50_us", "us"},
	{"deliver_within_limit", "ratio"},
	{"capacity_per_s", "1/s"},
	{"evidence_lag_p50_ms", "ms"},
	{"cpu_us_per_msg", "us"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics a traced run emits, plus the
// user-facing metrics that exist on one workload only.
var perLayer = []metricDef{
	// Tail latencies: user-facing, but the collector decides them and they
	// do not repeat within any bound the contract allows (see README.md).
	{"deliver_p99_us", "us"}, {"evidence_lag_p99_ms", "ms"},
	// User-facing, one workload each.
	{"react_p50_us", "us"}, {"react_p99_us", "us"}, {"recover_s", "s"},
	{"reconfig_p50_ms", "ms"}, {"reconfig_p99_ms", "ms"},
	{"erase_p50_ms", "ms"}, {"erase_p95_ms", "ms"}, {"provenance_p50_us", "us"},
	{"failed_share", "ratio"},
	// gateway
	{"gateway.ingest_self_p50_us", "us"}, {"gateway.ingest_calls", "count"},
	{"gateway.refused", "count"}, {"gateway.ctx_adoptions", "count"},
	// sbus, local delivery
	{"sbus.publish_self_p50_us", "us"}, {"sbus.inline_p50_us", "us"},
	{"sbus.handoff_p50_us", "us"}, {"sbus.handoff_p99_us", "us"},
	{"sbus.delivered", "count"}, {"sbus.handoffs", "count"}, {"sbus.overflow", "count"},
	{"sbus.denied", "count"}, {"sbus.reevaluations", "count"}, {"sbus.lane_gini", "ratio"},
	{"sbus.connect_many_s", "s"},
	// sbus, control plane
	{"sbus.setcontext_p50_us", "us"}, {"sbus.connect_p50_us", "us"}, {"sbus.disconnect_p50_us", "us"},
	// sbus, federation links
	{"sbus.hop1_p50_us", "us"}, {"sbus.hop2_p50_us", "us"}, {"sbus.relay_forward_p50_us", "us"},
	{"sbus.link_queue_highwater", "count"}, {"sbus.link_backpressure", "count"},
	{"sbus.link_reconnects", "count"},
	// ifc
	{"ifc.checkflow_p50_ns", "ns"}, {"ifc.flowcache_hit_ratio", "ratio"}, {"ifc.denied_ratio", "ratio"},
	// msg
	{"msg.encode_small_p50_ns", "ns"}, {"msg.encode_4k_p50_ns", "ns"},
	{"msg.decode_small_p50_ns", "ns"}, {"msg.decode_4k_p50_ns", "ns"},
	{"msg.wire_bytes_per_msg", "B"},
	// cep
	{"cep.feed_nodetect_p50_us", "us"}, {"cep.evals", "count"}, {"cep.detections", "count"},
	{"cep.detect_per_eval", "ratio"}, {"cep.lane_gini", "ratio"},
	// policy
	{"policy.detect_to_action_p50_us", "us"}, {"policy.firings", "count"},
	{"policy.fire_per_detection", "ratio"}, {"policy.errors", "count"},
	{"policy.load_ms", "ms"}, {"policy.ctxchange_p50_us", "us"},
	// audit
	{"audit.commit_lag_p50_us", "us"}, {"audit.commit_lag_p99_us", "us"}, {"audit.flush_ms", "ms"},
	{"audit.ingest_depth_max", "count"}, {"audit.records", "count"}, {"audit.records_per_msg", "ratio"},
	{"audit.verify_s", "s"}, {"audit.ancestry_p50_us", "us"}, {"audit.ancestry_cold_ms", "ms"},
	{"audit.retention_report_ms", "ms"},
	// store
	{"store.durable_lag_p50_ms", "ms"}, {"store.durable_lag_p99_ms", "ms"}, {"store.fsyncs", "count"},
	{"store.records_per_fsync", "ratio"}, {"store.buffered_max", "count"}, {"store.segments", "count"},
	{"store.bytes_per_record", "B"}, {"store.offload_ms", "ms"}, {"store.read_10k_ms", "ms"},
	{"store.recover_records_per_s", "1/s"}, {"store.redact_p50_ms", "ms"}, {"store.shed", "count"},
	// obligation
	{"obligation.sweep_ms", "ms"}, {"obligation.swept", "count"}, {"obligation.backlog_max", "count"},
	{"obligation.tombstones_per_erase", "ratio"},
	// transport
	{"transport.echo_small_p50_us", "us"}, {"transport.echo_4k_p50_us", "us"},
	// core
	{"core.new_domain_ms", "ms"}, {"core.federate_ms", "ms"}, {"core.close_ms", "ms"},
	{"core.health_poll_us", "us"},
	// loadgen
	{"loadgen.offered_per_s", "1/s"}, {"loadgen.late_p99_us", "us"}, {"loadgen.p99_at_2x_us", "us"},
	{"loadgen.p99_at_4x_us", "us"}, {"loadgen.max_rate_ok_per_s", "1/s"},
	{"loadgen.capacity_1lane_per_s", "1/s"}, {"loadgen.samples", "count"},
	// process
	{"process.cpu_s_per_kmsg", "s"}, {"process.allocs_per_msg", "count"},
	{"process.alloc_bytes_per_msg", "B"}, {"process.gc_pause_total_ms", "ms"},
	{"process.gc_cycles", "count"}, {"process.goroutines_max", "count"},
	// trace
	{"trace.overhead_pct", "%"}, {"trace.attribution_residual_pct", "%"},
}

// results collects metric values by name; names outside the two lists are
// a programming error and panic, so no metric can be emitted unlisted.
type results struct {
	vals map[string]float64
}

var knownMetrics = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			m[d.name] = d.unit
		}
	}
	return m
}()

func newResults() *results { return &results{vals: map[string]float64{}} }

func (r *results) set(name string, v float64) {
	if _, ok := knownMetrics[name]; !ok {
		panic("bench: metric " + name + " is not in the metric lists")
	}
	r.vals[name] = v
}

func (r *results) get(name string) float64 { return r.vals[name] }

// setPct sets name to the p-quantile of xs divided by div (a unit
// conversion); with no samples the metric stays unset and reads 0.
func (r *results) setPct(name string, xs []float64, p, div float64) {
	if len(xs) > 0 {
		r.set(name, percentile(sortedCopy(xs), p)/div)
	}
}

// An outcome is what one benchmark run reports.
type outcome struct {
	workload  string
	seed      uint64
	traced    bool
	attempted int64
	failed    int64
	reasons   []string // first few failure explanations
	invalid   []string // load-generator validity violations
	res       *results

	mu sync.Mutex // fail is called from generator goroutines
}

func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed += n
	if len(o.reasons) < 12 {
		o.reasons = append(o.reasons, fmt.Sprintf(format, args...))
	}
}

// check is one post-run comparison against the reference model: every unit
// of difference counts as a failure.
func (o *outcome) check(what string, got, want int64) {
	o.attempted++
	o.fail(max(got-want, want-got), "%s: got %d, reference model says %d", what, got, want)
}

func (o *outcome) defs() []metricDef {
	if o.traced {
		return perLayer
	}
	return endToEnd
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the one-line JSON object the driver reads: exactly the
// end-to-end metrics for an untraced run, exactly the per-layer metrics for
// a traced one.
func (o *outcome) resultLine() string {
	metrics := make(map[string]metricJSON)
	for _, d := range o.defs() {
		metrics[d.name] = metricJSON{Value: o.res.get(d.name), Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// printTable writes every metric the run produced, by name, with its unit.
func (o *outcome) printTable(w io.Writer) {
	mode := "plain"
	if o.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s ==\n", o.workload, o.seed, mode)
	names := make([]string, 0, len(o.res.vals))
	for n := range o.res.vals {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		di, dj := strings.Contains(names[i], "."), strings.Contains(names[j], ".")
		if di != dj {
			return !di // user-facing metrics first
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", n, o.res.vals[n], knownMetrics[n])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", o.attempted, o.failed)
	for _, r := range o.reasons {
		fmt.Fprintf(w, "  FAILED: %s\n", r)
	}
	for _, r := range o.invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", r)
	}
}
