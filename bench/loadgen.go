package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxFan bounds the deliveries one message can have (the widest fan-out of
// any topology the workloads build), sizing the per-message latency slots.
const maxFan = 3

// idShift splits a message id into (phase index, message index): every
// boundary the benchmark owns sees only the id the program carried for it
// and maps it back to the due time of the message's phase.
const idShift = 32

// A phase is one timed interval of a workload: open loop (messages due on a
// fixed schedule whatever the program does) or closed loop (each generator
// sends its next message as soon as the previous call returns).
type phase struct {
	idx  int
	name string
	// measured marks the reference-rate phase whose samples feed the
	// end-to-end latency metrics; the other phases feed per-layer numbers.
	measured bool
	// traced phases record spans (traced runs only).
	traced bool

	// Open loop: n messages, message i due at t0 + i*interval.
	rate     float64
	n        int
	t0       int64
	interval float64
	// seen counts sink-handler entries per message; lat holds the due-time →
	// handler-entry latency of each of them; late is how long after its due
	// time the generator started sending the message.
	seen []atomic.Uint32
	lat  []uint32
	late []uint32
	// want is the reference model's delivery count per message.
	want []uint8
	// ev collects due-time → evidence latencies (appended by one goroutine
	// per evidence recorder; see evidence).
	evMu sync.Mutex
	ev   []sample

	// Closed loop: every generator sends quota messages back to back (a
	// fixed amount of work, so memory and run time repeat from run to run),
	// giving up after dur; sent is what each generator got through. For an
	// open-loop phase dur is how long sending took.
	quota int
	dur   time.Duration
	sent  []int64
	// start/end bracket the phase (end is after the workload's drain).
	start, end int64
}

// A sample is one latency of message i of a phase, in nanoseconds.
type sample struct {
	i  int32
	ns uint32
}

func (p *phase) open() bool { return p.rate > 0 }

// due returns message i's due time (open loop) or the phase start (closed
// loop, where nothing is due: latencies are not taken).
func (p *phase) due(i int) int64 {
	if !p.open() {
		return p.start
	}
	return p.t0 + int64(float64(i)*p.interval)
}

// total returns the number of messages the phase sent.
func (p *phase) total() int {
	if p.open() {
		return p.n
	}
	var n int64
	for _, s := range p.sent {
		n += s
	}
	return int(n)
}

func clampNs(d int64) uint32 {
	if d < 0 {
		return 0
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// A run holds the phases of one workload execution. phases[0] is unused so
// that small numbers the benchmark did not issue (pre-loaded records) never
// parse as a message id.
type run struct {
	phases []*phase
	gens   int
	tr     *tracer
}

func newRun(gens int) *run { return &run{phases: []*phase{nil}, gens: gens} }

func (r *run) addOpen(name string, rate float64, seconds float64) *phase {
	n := int(rate * seconds)
	if n < r.gens {
		n = r.gens
	}
	p := &phase{
		idx: len(r.phases), name: name, rate: rate, n: n,
		interval: 1e9 / rate,
		seen:     make([]atomic.Uint32, n),
		lat:      make([]uint32, n*maxFan),
		late:     make([]uint32, n),
		want:     make([]uint8, n),
		ev:       make([]sample, 0, n*maxFan),
	}
	r.phases = append(r.phases, p)
	return p
}

// addClosed adds a closed-loop phase of n messages in total, abandoned
// after cap seconds should the program stall.
func (r *run) addClosed(name string, n int, cap float64) *phase {
	p := &phase{
		idx: len(r.phases), name: name,
		quota: max(n/r.gens, 1),
		dur:   time.Duration(cap * float64(time.Second)),
		sent:  make([]int64, r.gens),
	}
	r.phases = append(r.phases, p)
	return p
}

// msgID builds the id the program carries for message i of phase p.
func (p *phase) msgID(i int) int64 { return int64(p.idx)<<idShift | int64(i) }

// split maps an id back to its phase and message index; ok is false for ids
// the benchmark did not issue (pre-loaded records, probes).
func (r *run) split(id int64) (p *phase, i int, ok bool) {
	pi := int(id >> idShift)
	if pi < 1 || pi >= len(r.phases) {
		return nil, 0, false
	}
	return r.phases[pi], int(id & (1<<idShift - 1)), true
}

// hit records one sink-handler entry for message id at time t.
func (r *run) hit(id, t int64) {
	p, i, ok := r.split(id)
	if !ok || !p.open() || i >= p.n {
		return
	}
	k := p.seen[i].Add(1) - 1
	if k < maxFan {
		p.lat[i*maxFan+int(k)] = clampNs(t - p.due(i))
	}
}

// evidenceAt records that one of message id's flow records became evidence
// (committed, and durable where a store is attached) at time t.
func (r *run) evidenceAt(id, t int64) {
	p, i, ok := r.split(id)
	if !ok || !p.open() || i >= p.n {
		return
	}
	p.evMu.Lock()
	p.ev = append(p.ev, sample{int32(i), clampNs(t - p.due(i))})
	p.evMu.Unlock()
}

// arm fixes an open-loop phase's schedule a moment into the future; it is
// called before anything that runs beside the phase starts, so that every
// goroutine reading the schedule sees it already set.
func (p *phase) arm() {
	if p.open() {
		p.t0 = now() + int64(2*time.Millisecond)
		p.start = p.t0
	}
}

// maxNapNs is the longest a generator sleeps at a stretch. The reference
// box is a virtual machine whose host parks a processor that has halted for
// more than about 300 µs, and waking a parked processor takes 25–45 µs (and
// varies with the host's load) where waking a halted one takes 13 µs: a
// generator that slept a whole millisecond between messages would add the
// host's wake-up latency, and its drift, to every sample. Only the slowest
// schedule (reconfig_compliance, 1.7 ms between a generator's messages) is
// affected; the others are due more often than this anyway. Napping is not
// spinning: between naps the goroutine is parked on its timer and its
// processor is free.
const maxNapNs = 200e3

// runOpen sends phase p's schedule over r.gens generator goroutines:
// generator g owns messages g, g+gens, g+2·gens, … and sleeps until each is
// due — never spinning, and never sending early. A generator that falls
// behind sends back to back until it has caught up, and the latency of the
// messages it delayed still counts from their due times.
func (r *run) runOpen(p *phase, send func(g int, id int64, i int)) {
	var wg sync.WaitGroup
	for g := 0; g < r.gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pace := newPacer()
			defer pace.close()
			for i := g; i < p.n; i += r.gens {
				due := p.due(i)
				t := now()
				for due > t {
					pace.sleep(min(due-t, maxNapNs))
					t = now()
				}
				p.late[i] = clampNs(t - due)
				id := p.msgID(i)
				if p.traced {
					r.tr.add(span{id: id, kind: spGen, start: due, end: t, lane: int32(g)})
				}
				send(g, id, i)
			}
		}(g)
	}
	wg.Wait()
}

// runClosed has every generator send its quota back to back: generator g
// sends messages g, g+gens, … and records how many it got through.
func (r *run) runClosed(p *phase, send func(g int, id int64, i int)) {
	p.start = now()
	deadline := p.start + int64(p.dur)
	var wg sync.WaitGroup
	for g := 0; g < r.gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var k int64
			for i := g; k < int64(p.quota); i += r.gens {
				if k%64 == 0 && now() > deadline {
					break
				}
				send(g, p.msgID(i), i)
				k++
			}
			p.sent[g] = k
		}(g)
	}
	wg.Wait()
}

// forEachSent calls fn for every message index the phase sent, in
// generator order — the reference model walks the same indices the
// generators walked.
func (r *run) forEachSent(p *phase, fn func(i int)) {
	if p.open() {
		for i := 0; i < p.n; i++ {
			fn(i)
		}
		return
	}
	for g, k := range p.sent {
		for j := int64(0); j < k; j++ {
			fn(g + int(j)*r.gens)
		}
	}
}

// checkSeen compares every message's handler entries with the reference
// model's count: a missing, duplicated or wrongly allowed delivery fails.
func (p *phase) checkSeen(o *outcome) {
	for i := 0; i < p.n; i++ {
		if got := p.seen[i].Load(); got != uint32(p.want[i]) {
			o.fail(1, "%s message %d: %d deliveries, reference model says %d", p.name, i, got, p.want[i])
		}
	}
}

// deliveries returns the phase's due → handler-entry samples.
func (p *phase) deliveries() []sample {
	out := make([]sample, 0, len(p.lat))
	for i := 0; i < p.n; i++ {
		k := min(int(p.seen[i].Load()), maxFan)
		for _, ns := range p.lat[i*maxFan : i*maxFan+k] {
			out = append(out, sample{int32(i), ns})
		}
	}
	return out
}

// windowNs is the width of the windows a phase's median latencies are taken
// over. A run's samples are not one population: while the collector marks a
// heap that grows all run long, or the host takes a processor away for a
// moment, latency sits at another level for a few hundred milliseconds, and
// the median over all samples then reports how much of the run such
// episodes covered. The median over windows of each window's median reports
// the level the program runs at between them; how much they cost is what
// deliver_within_limit, the p99s and cpu_us_per_msg report.
const windowNs = 250e6

// windowedMedian returns the median over the phase's windows (by due time)
// of each window's median sample, in nanoseconds.
func (p *phase) windowedMedian(samples []sample) float64 {
	wins := make([][]float64, int(float64(p.n)*p.interval/windowNs)+1)
	for _, s := range samples {
		w := int(float64(s.i) * p.interval / windowNs)
		wins[w] = append(wins[w], float64(s.ns))
	}
	var medians []float64
	for _, w := range wins {
		if len(w) > 0 {
			medians = append(medians, median(w))
		}
	}
	return median(medians)
}

// nanos returns the samples' latencies, ascending.
func nanos(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for k, s := range samples {
		out[k] = float64(s.ns)
	}
	sort.Float64s(out)
	return out
}

// awaitDeliveries blocks until the sinks have seen want handler entries in
// all; sends have returned by then, so only asynchronous hand-offs (shard
// rings, links) are still in flight. What has not arrived after 30 s is
// counted missing.
func awaitDeliveries(o *outcome, p *phase, delivered func() int64, want int64) {
	if !waitUntil(30*time.Second, func() bool { return delivered() >= want }) {
		missing := want - delivered()
		o.fail(missing, "%s: %d deliveries missing after 30s", p.name, missing)
	}
}

// waitUntil polls cond every 200µs until it holds or the timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}
