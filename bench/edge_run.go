package main

import (
	"path/filepath"
	"runtime"
	"time"

	"lciot/internal/audit"
	"lciot/internal/device"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/store"
	"lciot/internal/telemetry"
)

// runEdge executes ward_pipeline or durable_evidence.
func runEdge(cfg *config, opts edgeOpts) (*outcome, error) {
	o := &outcome{workload: opts.name, seed: cfg.seed, traced: cfg.trace, res: newResults()}
	res := o.res
	r := newRun(generators())
	rate, sat := cfg.rates(opts.refRate, opts.satRate)
	pl := r.plan(cfg, rate, sat)
	var lane1 *phase
	if cfg.trace {
		lane1 = r.addClosed("one-lane", int(sat*cfg.seconds/15), 6*cfg.seconds/15)
		r.tr = newTracer(16 * (pl.ref.n + int(rate*cfg.seconds)))
		telemetry.Enable() // solely to read gate-dependent counters; stage sampling stays 0
		defer telemetry.Disable()
	}

	w, setupS, err := timeSetups(cfg, 200, func(a int) (*edge, error) { return buildEdge(cfg, opts, r, o, a) })
	if err != nil {
		return nil, err
	}
	defer func() { w.close() }()
	res.set("setup_s", setupS)
	res.set("core.new_domain_ms", w.tNewDomain*1e3)
	res.set("sbus.connect_many_s", w.tConnectMany)
	res.set("policy.load_ms", w.tPolicy*1e3)

	watch := watchGauges(cfg, w.dom.Log(), w.dom.AuditStore())
	cost, satCPU := r.runPhases(pl, hooks{send: w.send, drain: w.drain, beside: w.beside})
	watch.report(res)

	w.verify()
	r.commonMetrics(cfg, o, pl, cost, satCPU, localLimitUs)
	w.layerMetrics(pl)
	res.set("audit.flush_ms", w.flushMs)
	if len(w.offloadMs) > 0 {
		res.set("store.offload_ms", median(w.offloadMs))
	}
	if len(w.readMs) > 0 {
		res.set("store.read_10k_ms", median(w.readMs))
	}

	if cfg.trace {
		w.tracedMetrics(pl)
		w.probes(pl)
	}

	t0 := time.Now()
	if err := w.dom.Close(); err != nil {
		o.fail(1, "close: %v", err)
	}
	res.set("core.close_ms", since(t0)*1e3)
	if opts.durable {
		w.recover()
	}

	if cfg.trace {
		// The single-threaded baseline: the same job on a one-shard domain
		// with one processor, one generator.
		if err := w.oneLane(lane1); err != nil {
			return nil, err
		}
		if err := r.tr.write(cfg.outDir, opts.name+"-spans.jsonl"); err != nil {
			return nil, err
		}
	}
	res.set("failed_share", float64(o.failed)/float64(max(o.attempted, 1)))
	return o, nil
}

// beside starts, for one phase, what an operator's maintenance loop does
// beside the traffic. Without a store the in-memory log is pruned every
// second, so memory is steady state, not run length; with one, the log is
// offloaded every two seconds and a 10 000-record range is read back every
// second. The schedules start with the phase, so every run has the same
// maintenance at the same points of the same phase.
func (w *edge) beside(p *phase) (stop func()) {
	speed := w.cfg.speed()
	if !w.opts.durable {
		return paced(speed, func(k int) {
			if k == 0 {
				return // the first tick is the phase start
			}
			next, _ := w.dom.Log().Checkpoint()
			w.dom.Log().Prune(next)
		})
	}
	stopOffload := paced(speed, func(k int) {
		if k%2 == 0 {
			return // offload on the odd seconds, reads on the half seconds
		}
		t0 := time.Now()
		if _, err := w.dom.OffloadAudit(); err != nil {
			w.o.fail(1, "offload: %v", err)
		}
		w.offloadMs = append(w.offloadMs, since(t0)*1e3)
	})
	stopRead := paced(2*speed, func(k int) {
		if k%2 == 0 {
			return
		}
		span := uint64(min(10000, w.sc.preload))
		from := splitmix64(w.cfg.seed+uint64(len(w.readMs))) % uint64(w.sc.preload-int(span)+1)
		n := 0
		t0 := time.Now()
		err := w.dom.AuditStore().Read(from, from+span, func(audit.Record) error { n++; return nil })
		w.readMs = append(w.readMs, since(t0)*1e3)
		if err != nil || uint64(n) != span {
			w.o.fail(1, "store read [%d,%d): %d records, err %v", from, from+span, n, err)
		}
	})
	return func() {
		stopOffload()
		stopRead()
	}
}

// layerMetrics sets the per-layer counts every run can read from the
// program's public read-outs and the benchmark's own boundaries.
func (w *edge) layerMetrics(pl *plan) {
	res := w.o.res
	msgs := float64(w.ingestCalls.Load() + w.publishCalls.Load())
	res.set("gateway.ingest_calls", float64(w.ingestCalls.Load()))
	res.set("gateway.refused", float64(w.ev.refused.Load()))
	delivered, reevals := setShardMetrics(res, w.dom.Bus())
	res.set("gateway.ctx_adoptions", reevals)
	busDenied := float64(w.ev.denied.Load() - w.ev.refused.Load())
	res.set("sbus.denied", busDenied)
	if d := delivered + busDenied; d > 0 {
		res.set("ifc.denied_ratio", busDenied/d)
	}
	res.set("audit.records", float64(w.ev.records.Load()))
	if msgs > 0 {
		res.set("audit.records_per_msg", float64(w.ev.records.Load())/msgs)
	}
	res.set("policy.errors", float64(w.ev.policyErrors.Load()))

	if w.opts.patterns {
		skew := w.dom.SkewReport()
		var evals []uint64
		var evalSum, fired float64
		for _, l := range skew.Lanes {
			evals = append(evals, l.CEPEvals)
			evalSum += float64(l.CEPEvals)
			fired += float64(l.RuleFirings)
		}
		var detections float64
		var react []float64
		for _, sk := range w.sinks {
			detections += float64(sk.detections())
			for _, s := range sk.react {
				if p, i, ok := w.r.split(s.id); ok && p == pl.ref {
					react = append(react, float64(s.at-p.due(i)))
				}
			}
		}
		res.set("cep.evals", evalSum)
		res.set("cep.lane_gini", gini(evals))
		res.set("cep.detections", detections)
		if evalSum > 0 {
			res.set("cep.detect_per_eval", detections/evalSum)
		}
		res.set("policy.firings", fired)
		if detections > 0 {
			res.set("policy.fire_per_detection", fired/detections)
		}
		res.setPct("react_p50_us", react, 0.50, 1e3)
		res.setPct("react_p99_us", react, 0.99, 1e3)
	}
	if s := w.dom.AuditStore(); s != nil {
		res.set("store.segments", float64(s.WAL().Segments()))
		res.set("store.shed", float64(s.Health().Shed))
		if n := s.NextSeq(); n > 0 {
			res.set("store.bytes_per_record", float64(dirBytes(filepath.Join(w.dir, "audit")))/float64(n))
		}
	}
}

// tracedMetrics derives the self times and lags from the traced phase's
// spans and reads the counters that need telemetry armed.
func (w *edge) tracedMetrics(pl *plan) {
	res := w.o.res
	spans := groupSpans(w.r.tr.spans(), pl.ref)
	st := spans.analyse(spIngest)
	st.setCommon(res)
	res.setPct("gateway.ingest_self_p50_us", st.callSelf, 0.50, 1e3)
	res.setPct("cep.feed_nodetect_p50_us", st.feedNoDet, 0.50, 1e3)
	res.setPct("policy.detect_to_action_p50_us", st.feedToAct, 0.50, 1e3)
	// The lab feed is the one place this workload calls Publish directly.
	res.setPct("sbus.publish_self_p50_us", spans.analyse(spPublish).callSelf, 0.50, 1e3)
	setFlowCacheRatio(res)
	if w.opts.durable {
		setFsyncMetrics(res, filepath.Join(w.dir, "audit"), w.ev.records.Load())
	}
}

// probes runs the layer probes on inputs taken from this workload.
func (w *edge) probes(pl *plan) {
	res := w.o.res
	var pairs [][2]ifc.SecurityContext
	var ids []string
	for g, sinks := range w.fan {
		for _, s := range sinks {
			c, err := w.dom.Bus().Component(w.sinks[s].name)
			if err != nil {
				continue
			}
			pairs = append(pairs, [2]ifc.SecurityContext{w.ctxA(g), c.Context()})
		}
	}
	probeCheckFlow(res, pairs)
	small := msg.New("reading").Set("device", msg.Str(w.devID[0][0])).Set("metric", msg.Str("hr")).
		Set("value", msg.Float(72)).Set("seq", msg.Int(1<<idShift))
	small.DataID = device.Reading{DeviceID: w.devID[0][0], Metric: "hr", Seq: 1 << idShift}.DataID()
	probeCodec(res, small, nil)

	// Provenance queries on data the run delivered last, on the quiescent
	// graph the run left behind.
	last := pl.satTraced2
	w.r.forEachSent(last, func(i int) {
		if m := w.spec(last, i); m.kind == kindReading && len(ids) < 12 {
			ids = append(ids, device.Reading{DeviceID: w.devID[m.gw][m.dev],
				Metric: metricNames[m.dev%4], Seq: uint64(last.msgID(i))}.DataID())
		}
	})
	probeAncestry(res, w.dom.Provenance(), ids)

	t0 := time.Now()
	audit.RetentionReport(w.dom.Log().Select(nil), "medical", time.Now().Add(time.Hour))
	res.set("audit.retention_report_ms", since(t0)*1e3)
}

// recover reopens the store the run left behind: replay, torn-tail check
// and chain verification, exactly what a restart pays.
func (w *edge) recover() {
	res := w.o.res
	w.o.attempted++
	t0 := time.Now()
	s, err := store.OpenAudit(filepath.Join(w.dir, "audit"), store.Options{})
	if err != nil {
		w.o.fail(1, "reopen + chain verify: %v", err)
		return
	}
	took := since(t0)
	res.set("recover_s", took)
	n := s.NextSeq()
	res.set("store.recover_records_per_s", float64(n)/took)
	// Every record the chain committed must have come back.
	want := uint64(w.sc.preload) + uint64(w.ev.records.Load())
	w.o.attempted++
	if n < want {
		w.o.fail(int64(want-n), "recovered %d records, %d were committed", n, want)
	}
	if err := s.Close(); err != nil {
		w.o.fail(1, "close recovered store: %v", err)
	}
}

// oneLane builds the same deployment on one shard and drives it closed-loop
// from one generator with one processor.
func (w *edge) oneLane(p *phase) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	r1 := *w.r
	r1.gens = 1
	opts := w.opts
	opts.lanes = 1
	o1 := &outcome{res: newResults()}
	w1, err := buildEdge(w.cfg, opts, &r1, o1, 99)
	if err != nil {
		return err
	}
	defer w1.close()
	p.sent = make([]int64, 1)
	p.quota *= w.r.gens
	r1.runClosed(p, func(g int, id int64, i int) { w1.send(p, g, id, i) })
	w1.drain(p)
	w.o.res.set("loadgen.capacity_1lane_per_s", capacity(p))
	w.o.attempted += o1.attempted
	w.o.fail(o1.failed, "one-lane baseline: %v", o1.reasons)
	return nil
}
