package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lciot/internal/audit"
	"lciot/internal/store"
)

// config is one benchmark invocation.
type config struct {
	seed    uint64
	seconds float64 // measured time, split over the phases
	trace   bool
	// toy shrinks topologies and rates so the smoke test finishes in well
	// under a second per workload; real runs never set it.
	toy bool
	// flip is the smoke test's oracle check: the reference model's
	// expectation for one message is inverted, so a correct program must
	// now be reported as failing.
	flip bool
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// tmpRoot is the run-scoped directory every data dir lives under; outDir
	// receives the traced run's spans.
	tmpRoot string
	outDir  string
}

// speed is how much faster than real time the schedules beside a phase
// run: toy runs last a fraction of a second and still have to see every
// periodic activity a few times.
func (cfg *config) speed() float64 {
	if cfg.toy {
		return 20
	}
	return 1
}

// rates scales a workload's frozen reference and nominal saturation rates
// down for toy runs.
func (cfg *config) rates(ref, sat float64) (float64, float64) {
	if cfg.toy {
		return ref / 8, sat / 8
	}
	return ref, sat
}

// generators returns how many generator goroutines a run uses: at most
// nproc, at most 4, and a power of two so fixed topologies divide evenly.
func generators() int {
	n := runtime.GOMAXPROCS(0)
	g := 1
	for g*2 <= n && g*2 <= 4 {
		g *= 2
	}
	return g
}

// shards is the Shards option every sharded domain is built with: nproc.
func shards() int { return runtime.GOMAXPROCS(0) }

// A plan is the phase sequence of one run. Plain runs spend their time on
// the reference-rate phase and the saturation phase, which carry the
// end-to-end metrics; traced runs shorten both to make room for the rate
// ladder, a traced saturation phase and the one-lane baseline.
type plan struct {
	warm, ref *phase
	rungs     []*phase // 2×, 4×, 8× the reference rate (traced runs)
	sat       *phase   // closed loop, untraced
	// Traced runs follow sat with the same work spans on, then repeat the
	// pair: the heap the program retains grows all run long, so comparing
	// one untraced phase with one later traced phase would measure drift,
	// not tracing.
	satTraced, sat2, satTraced2 *phase
}

// plan lays the phases out over cfg.seconds. satRate is the workload's
// nominal saturation throughput: the closed-loop phases send a fixed number
// of messages sized to take their share of the time at that rate.
func (r *run) plan(cfg *config, refRate, satRate float64) *plan {
	unit := cfg.seconds / 15
	pl := &plan{}
	pl.warm = r.addOpen("warm-up", refRate, unit)
	if !cfg.trace {
		pl.ref = r.addOpen("reference", refRate, 9*unit)
		pl.ref.measured = true
		pl.sat = r.addClosed("saturation", int(satRate*5*unit), 15*unit)
		return pl
	}
	pl.ref = r.addOpen("reference", refRate, 4*unit)
	pl.ref.measured, pl.ref.traced = true, true
	for _, mult := range []float64{2, 4, 8} {
		pl.rungs = append(pl.rungs, r.addOpen(fmt.Sprintf("rung-%gx", mult), refRate*mult, unit))
	}
	pl.sat = r.addClosed("saturation", int(satRate*unit), 3*unit)
	pl.satTraced = r.addClosed("saturation-traced", int(satRate*unit), 3*unit)
	pl.sat2 = r.addClosed("saturation-2", int(satRate*unit), 3*unit)
	pl.satTraced2 = r.addClosed("saturation-traced-2", int(satRate*unit), 3*unit)
	pl.satTraced.traced, pl.satTraced2.traced = true, true
	return pl
}

func (pl *plan) all() []*phase {
	out := []*phase{pl.warm, pl.ref}
	out = append(out, pl.rungs...)
	out = append(out, pl.sat)
	if pl.satTraced != nil {
		out = append(out, pl.satTraced, pl.sat2, pl.satTraced2)
	}
	return out
}

// hooks are what a workload plugs into the shared phase runner.
type hooks struct {
	// send issues message i of the current phase from generator g.
	send func(p *phase, g int, id int64, i int)
	// drain blocks until everything phase p sent is fully processed:
	// delivered, audit flushed, and durable where a store is attached.
	drain func(p *phase)
	// beside, when set, starts activity that runs beside a phase's sending
	// and returns the function that stops it.
	beside func(p *phase) (stop func())
}

// phaseCost is what the process spent over one phase.
type phaseCost struct {
	before, after procSnap
}

// runPhases executes the plan in order and returns the process cost of the
// reference phase and the CPU time the saturation phase burnt.
func (r *run) runPhases(pl *plan, h hooks) (ref phaseCost, satCPU int64) {
	for _, p := range pl.all() {
		// Every phase starts from a collected heap: the heap the program
		// retains grows all run long, and where the previous phase left the
		// collector would otherwise decide how many cycles land in this one.
		runtime.GC()
		if p == pl.ref {
			ref.before = snapProcess()
		}
		if p == pl.sat {
			satCPU = -cpuNs()
		}
		p.arm()
		var stop func()
		if h.beside != nil {
			stop = h.beside(p)
		}
		send := func(g int, id int64, i int) { h.send(p, g, id, i) }
		if p.open() {
			r.runOpen(p, send)
		} else {
			r.runClosed(p, send)
		}
		sendEnd := now()
		if stop != nil {
			stop()
		}
		h.drain(p)
		p.end = now()
		if p.open() {
			// Offered rate is what the generators achieved, not what was
			// asked: the span from the first due time to the last send.
			p.dur = time.Duration(sendEnd - p.t0)
		}
		if p == pl.ref {
			ref.after = snapProcess()
		}
		if p == pl.sat {
			satCPU += cpuNs()
		}
	}
	return ref, satCPU
}

// capacity is the closed-loop phase's fully-processed messages per second.
func capacity(p *phase) float64 {
	if p == nil || p.end <= p.start {
		return 0
	}
	return float64(p.total()) / (float64(p.end-p.start) / 1e9)
}

// commonMetrics derives the metrics every workload shares from the phases.
// limitUs is the workload's latency limit on deliver_p99_us.
func (r *run) commonMetrics(cfg *config, o *outcome, pl *plan, cost phaseCost, satCPU int64, limitUs float64) {
	res := o.res
	ref := pl.ref
	delivered := ref.deliveries()
	lat := nanos(delivered)
	res.set("deliver_p50_us", ref.windowedMedian(delivered)/1e3)
	res.set("deliver_p99_us", percentile(lat, 0.99)/1e3)
	// Share of the deliveries the reference model expects that entered
	// their sink handler within the limit; a missing one misses it.
	var expected, within float64
	for i := 0; i < ref.n; i++ {
		expected += float64(ref.want[i])
	}
	for _, l := range lat {
		if l <= limitUs*1e3 {
			within++
		}
	}
	if expected > 0 {
		res.set("deliver_within_limit", min(within/expected, 1))
	}
	res.set("evidence_lag_p50_ms", ref.windowedMedian(ref.ev)/1e6)
	res.set("evidence_lag_p99_ms", percentile(nanos(ref.ev), 0.99)/1e6)
	res.set("capacity_per_s", capacity(pl.sat))
	n := float64(ref.n)
	cpu := float64(cost.after.cpuNs - cost.before.cpuNs)
	if sent := pl.sat.total(); sent > 0 {
		res.set("cpu_us_per_msg", float64(satCPU)/1e3/float64(sent))
	}
	res.set("peak_rss_mb", peakRSSMiB())

	res.set("process.cpu_s_per_kmsg", cpu/1e9/(n/1e3))
	res.set("process.allocs_per_msg", float64(cost.after.mallocs-cost.before.mallocs)/n)
	res.set("process.alloc_bytes_per_msg", float64(cost.after.allocBytes-cost.before.allocBytes)/n)
	res.set("process.gc_pause_total_ms", float64(cost.after.gcPauseNs-cost.before.gcPauseNs)/1e6)
	res.set("process.gc_cycles", float64(cost.after.gcCycles-cost.before.gcCycles))

	late := sortedCopy(ref.late)
	lateP99 := percentile(late, 0.99) / 1e3
	lateP50 := percentile(late, 0.50) / 1e3
	offered := float64(ref.n) / ref.dur.Seconds()
	res.set("loadgen.offered_per_s", offered)
	res.set("loadgen.late_p99_us", lateP99)
	res.set("loadgen.samples", float64(len(lat)))
	if !cfg.toy {
		// Validity guard: the numbers must measure the program, not the
		// generator. Tail lateness is the program's own collector stalls on
		// the processors the generators share with it, and is part of every
		// latency; a generator that is typically late, or cannot offer the
		// frozen rate, measures itself.
		if lateP50 > limitUs/2 {
			o.invalid = append(o.invalid, fmt.Sprintf(
				"generator median lateness %.0fus exceeds half the %.0fus latency limit", lateP50, limitUs))
		}
		if offered < 0.95*ref.rate {
			o.invalid = append(o.invalid, fmt.Sprintf(
				"offered %.0f msg/s is below 95%% of the frozen %.0f msg/s", offered, ref.rate))
		}
	}

	if !cfg.trace {
		return
	}
	// Rate ladder: the highest offered rate that still meets the limit with
	// the generators keeping up shows where latency leaves the floor.
	maxOK := 0.0
	okAt := func(p *phase) (float64, bool) {
		p99 := percentile(nanos(p.deliveries()), 0.99) / 1e3
		kept := float64(p.n)/p.dur.Seconds() >= 0.99*p.rate
		return p99, kept && p99 <= limitUs
	}
	_, climbing := okAt(ref)
	if climbing {
		maxOK = ref.rate
	}
	for k, p := range pl.rungs {
		p99, ok := okAt(p)
		switch k {
		case 0:
			res.set("loadgen.p99_at_2x_us", p99)
		case 1:
			res.set("loadgen.p99_at_4x_us", p99)
		}
		climbing = climbing && ok
		if climbing {
			maxOK = p.rate
		}
	}
	res.set("loadgen.max_rate_ok_per_s", maxOK)
	if c := capacity(pl.sat) + capacity(pl.sat2); c > 0 {
		res.set("trace.overhead_pct", 100*(c-capacity(pl.satTraced)-capacity(pl.satTraced2))/c)
	}
}

// gauges are the maxima of read-outs the program only exposes as
// instantaneous values (queue depths, buffers, goroutines). A traced run
// samples them every few milliseconds from its own goroutine.
type gauges struct {
	depth, goroutines, buffered float64
	stop, done                  chan struct{}
}

// watchGauges starts sampling log (and st, when the domain has a store);
// untraced runs get a nil watcher, whose methods do nothing.
func watchGauges(cfg *config, log *audit.Log, st *store.AuditStore) *gauges {
	if !cfg.trace {
		return nil
	}
	g := &gauges{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-tick.C:
				g.depth = max(g.depth, float64(log.IngestDepth()))
				g.goroutines = max(g.goroutines, float64(runtime.NumGoroutine()))
				if st != nil {
					g.buffered = max(g.buffered, float64(st.Health().Buffered))
				}
			}
		}
	}()
	return g
}

// report stops the sampling and sets the maxima.
func (g *gauges) report(res *results) {
	if g == nil {
		return
	}
	close(g.stop)
	<-g.done
	res.set("audit.ingest_depth_max", g.depth)
	res.set("process.goroutines_max", g.goroutines)
	res.set("store.buffered_max", g.buffered)
}

// timeSetups runs build repeatedly, closing every world but the last, and
// returns the last world with the median build time in seconds. Set-up is
// repeated because its median, not one draw, is the reported metric: at
// least cfg.setups times, and for set-ups that take milliseconds as often as
// fits in about a second, so the median of a cheap set-up is as steady as
// that of an expensive one; maxReps caps the repetitions for worlds that are
// not free to discard.
func timeSetups[W interface{ close() }](cfg *config, maxReps int, build func(attempt int) (W, error)) (W, float64, error) {
	var zero W
	var times []float64
	var last W
	var total float64
	for a := 0; a < cfg.setups || (!cfg.toy && total < 1 && a < maxReps); a++ {
		if a > 0 {
			last.close()
		}
		t0 := time.Now()
		w, err := build(a)
		if err != nil {
			return zero, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
		last = w
	}
	return last, median(times), nil
}

// dataDir returns a fresh directory under the run's temp root.
func (cfg *config) dataDir(name string, attempt int) (string, error) {
	dir := filepath.Join(cfg.tmpRoot, fmt.Sprintf("%s-%d", name, attempt))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
