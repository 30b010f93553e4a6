package main

import (
	"time"

	"lciot/internal/audit"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
	"lciot/internal/telemetry"
	"lciot/internal/transport"
)

// Layer probes time one layer's public function directly, on inputs taken
// from the workload, between phases. A single call is too short for the
// clock, so each sample is a batch divided by its size.

const (
	probeBatch   = 512
	probeSamples = 101
)

// probeNs returns the median nanoseconds per call of fn.
func probeNs(fn func()) float64 {
	samples := make([]float64, probeSamples)
	for s := range samples {
		t0 := now()
		for k := 0; k < probeBatch; k++ {
			fn()
		}
		samples[s] = float64(now()-t0) / probeBatch
	}
	return median(samples)
}

// probeCheckFlow times ifc.CheckFlow over the workload's context pairs.
func probeCheckFlow(res *results, pairs [][2]ifc.SecurityContext) {
	if len(pairs) == 0 {
		return
	}
	k := 0
	res.set("ifc.checkflow_p50_ns", probeNs(func() {
		p := pairs[k%len(pairs)]
		k++
		_ = ifc.CheckFlow(p[0], p[1])
	}))
}

// probeCodec times the message codec on a small message and, when one is
// given, a message carrying a 4 KiB bytes field.
func probeCodec(res *results, small, big *msg.Message) {
	one := func(m *msg.Message, enc, dec string) {
		if m == nil {
			return
		}
		var buf []byte
		res.set(enc, probeNs(func() {
			var err error
			if buf, err = msg.AppendBinary(buf[:0], m); err != nil {
				panic(err) // the workload's own message: always encodable
			}
		}))
		res.set(dec, probeNs(func() {
			if _, err := msg.DecodeBinary(buf); err != nil {
				panic(err)
			}
		}))
	}
	one(small, "msg.encode_small_p50_ns", "msg.decode_small_p50_ns")
	one(big, "msg.encode_4k_p50_ns", "msg.decode_4k_p50_ns")
}

// probeEcho measures a raw transport round trip over TCP loopback for a
// small and a 4 KiB frame: the floor under any federated hop.
func probeEcho(res *results) error {
	ln, err := transport.TCPNetwork{}.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			f, err := c.Recv()
			if err != nil {
				return
			}
			if err := c.Send(f); err != nil {
				return
			}
		}
	}()
	c, err := transport.TCPNetwork{}.Dial(ln.Addr())
	if err != nil {
		return err
	}
	for _, probe := range []struct {
		name string
		size int
	}{{"transport.echo_small_p50_us", 64}, {"transport.echo_4k_p50_us", 4096}} {
		frame := make([]byte, probe.size)
		samples := make([]float64, 0, 400)
		for k := 0; k < 400; k++ {
			t0 := now()
			if err := c.Send(frame); err != nil {
				c.Close()
				return err
			}
			if _, err := c.Recv(); err != nil {
				c.Close()
				return err
			}
			samples = append(samples, float64(now()-t0)/1e3)
		}
		res.set(probe.name, median(samples))
	}
	c.Close()
	<-done
	return nil
}

// probeAncestry times provenance queries on the given data ids against the
// live graph: the first query after ingest stopped is the cold one, the
// rest walk the same quiescent graph.
func probeAncestry(res *results, g *audit.Graph, ids []string) {
	var samples []float64
	for k, id := range ids {
		t0 := now()
		if _, err := g.Ancestry(id); err != nil {
			continue
		}
		d := float64(now() - t0)
		if k == 0 {
			res.set("audit.ancestry_cold_ms", d/1e6)
			continue
		}
		samples = append(samples, d/1e3)
	}
	if len(samples) > 0 {
		res.set("audit.ancestry_p50_us", median(samples))
	}
}

// telemetryCounter sums a counter (or a histogram's observation count) over
// the series of the program's own telemetry registry whose label key has
// the given value ("" matches every series). Only traced runs arm
// telemetry, and only to read these gate-dependent counters.
func telemetryCounter(name, key, value string) float64 {
	var total float64
	for _, m := range telemetry.Snapshot() {
		if m.Name == name && (key == "" || m.Label(key) == value) {
			total += m.Value
		}
	}
	return total
}

// setFlowCacheRatio reads the flow cache's hit ratio from telemetry.
func setFlowCacheRatio(res *results) {
	hits := telemetryCounter("ifc_flowcache_hits_total", "", "")
	misses := telemetryCounter("ifc_flowcache_misses_total", "", "")
	if hits+misses > 0 {
		res.set("ifc.flowcache_hit_ratio", hits/(hits+misses))
	}
}

// setFsyncMetrics reads how many group commits the WAL under dir made and
// how many of the run's records each carried.
func setFsyncMetrics(res *results, dir string, records int64) {
	fsyncs := telemetryCounter("store_wal_fsync_ns", "dir", dir)
	res.set("store.fsyncs", fsyncs)
	if fsyncs > 0 {
		res.set("store.records_per_fsync", float64(records)/fsyncs)
	}
}

// setShardMetrics sets the bus counters every sharded workload reads.
func setShardMetrics(res *results, bus *sbus.Bus) (delivered, reevals float64) {
	var perShard []uint64
	var handoffs, overflow float64
	for _, st := range bus.ShardStats() {
		perShard = append(perShard, st.Delivered)
		delivered += float64(st.Delivered)
		handoffs += float64(st.HandoffsIn)
		overflow += float64(st.Overflow)
		reevals += float64(st.Reevaluations)
	}
	res.set("sbus.delivered", delivered)
	res.set("sbus.handoffs", handoffs)
	res.set("sbus.overflow", overflow)
	res.set("sbus.reevaluations", reevals)
	res.set("sbus.lane_gini", gini(perShard))
	return delivered, reevals
}

// since returns seconds elapsed since t0.
func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }
