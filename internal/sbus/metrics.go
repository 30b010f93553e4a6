package sbus

import (
	"strconv"

	"lciot/internal/telemetry"
)

// registerBusMetrics wires the bus into the telemetry registry. Everything
// here is either func-backed (reading counters the shards maintain anyway,
// so the data path pays nothing for the series) or gated recording
// instruments (the publish histogram costs one atomic load while telemetry
// is disabled). A bus constructed later under the same name takes the
// series over — in lciotd there is exactly one bus per process, and tests
// that build many short-lived buses just keep the newest one visible.
func registerBusMetrics(b *Bus) {
	reg := telemetry.Default()
	// Publish is the per-message hot path, so its latency is sampled
	// 1-in-8: the unsampled publishes pay one atomic add instead of two
	// clock reads.
	b.pubHist = reg.Histogram("sbus_publish_ns", "bus", b.name).SampleEvery(3)
	reg.GaugeFunc("sbus_shards", func() float64 { return float64(len(b.shards)) },
		"bus", b.name)
	for _, sh := range b.shards {
		sh := sh
		shard := strconv.Itoa(sh.idx)
		reg.CounterFunc("sbus_shard_delivered_total",
			func() float64 { return float64(sh.delivered.Load()) },
			"bus", b.name, "shard", shard)
		reg.CounterFunc("sbus_shard_handoffs_total",
			func() float64 { return float64(sh.handoffsIn.Load()) },
			"bus", b.name, "shard", shard)
		reg.CounterFunc("sbus_shard_overflow_total",
			func() float64 { return float64(sh.overflow.Load()) },
			"bus", b.name, "shard", shard)
	}
}
