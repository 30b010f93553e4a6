package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// armed enables the recording gate for one test and restores the previous
// state afterwards.
func armed(t *testing.T) {
	t.Helper()
	prev := Enabled()
	Enable()
	t.Cleanup(func() {
		if !prev {
			Disable()
		}
	})
}

func TestDisabledInstrumentsRecordNothing(t *testing.T) {
	prev := Enabled()
	Disable()
	t.Cleanup(func() {
		if prev {
			Enable()
		}
	})
	r := NewRegistry()
	c := r.Counter("t_c")
	h := r.Histogram("t_h")
	c.Add(5)
	h.Observe(100)
	h.ObserveSince(h.Start()) // Start returns zero time while disabled
	if c.Value() != 0 || h.stats().Count != 0 {
		t.Fatalf("disabled instruments recorded: c=%d hist=%d", c.Value(), h.stats().Count)
	}
}

// TestConcurrentRecordVsSnapshot hammers every instrument kind from many
// goroutines while snapshots are taken concurrently; run under -race this
// proves the record and read paths are safe together, and the final counter
// total must be exact (no lost striped increments).
func TestConcurrentRecordVsSnapshot(t *testing.T) {
	armed(t)
	r := NewRegistry()
	c := r.Counter("t_conc_c", "side", "a")
	h := r.Histogram("t_conc_h")
	r.GaugeFunc("t_conc_fn", func() float64 { return float64(c.Value()) })

	const workers = 8
	const perWorker = 10000
	var writers, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() { // concurrent reader
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for i := 0; i < workers; i++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for j := 0; j < perWorker; j++ {
				c.Add(1)
				h.Observe(int64(j%1000) + 1)
			}
		}()
	}
	writers.Wait()
	close(stop)
	reader.Wait()

	if v := c.Value(); v != workers*perWorker {
		t.Fatalf("counter = %d, want %d", v, workers*perWorker)
	}
	st := h.stats()
	if st.Count != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", st.Count, workers*perWorker)
	}
	snap := r.Snapshot()
	if m, ok := Find(snap, "t_conc_fn"); !ok || m.Value != float64(workers*perWorker) {
		t.Fatalf("func gauge = %+v (found %v)", m, ok)
	}
}

func TestHistogramStats(t *testing.T) {
	armed(t)
	r := NewRegistry()
	h := r.Histogram("t_hist")
	var sum uint64
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
		sum += uint64(v)
	}
	st := h.stats()
	if st.Count != 1000 || st.Sum != sum {
		t.Fatalf("count/sum = %d/%d, want 1000/%d", st.Count, st.Sum, sum)
	}
	// Quantiles report the upper bucket edge with ≤25% relative error on a
	// log-linear layout; allow a generous band around the true values.
	check := func(name string, got, truth int64) {
		if got < truth || got > truth+truth/2 {
			t.Errorf("%s = %d, want within [%d, %d]", name, got, truth, truth+truth/2)
		}
	}
	check("p50", st.P50, 500)
	check("p90", st.P90, 900)
	check("p99", st.P99, 990)
	if st.Max < 1000 || st.Max > 1500 {
		t.Errorf("max = %d, want ~1000", st.Max)
	}
}

// TestHistogramSampledTiming: a histogram with SampleEvery(3) opens a
// timing window on exactly one call in eight and counts only those.
func TestHistogramSampledTiming(t *testing.T) {
	armed(t)
	r := NewRegistry()
	h := r.Histogram("t_sampled").SampleEvery(3)
	live := 0
	for i := 0; i < 64; i++ {
		s := h.Start()
		if !s.IsZero() {
			live++
		}
		h.ObserveSince(s)
	}
	if live != 8 {
		t.Fatalf("live windows = %d of 64 at 1-in-8, want 8", live)
	}
	if c := h.stats().Count; c != 8 {
		t.Fatalf("sampled count = %d, want 8", c)
	}
}

// TestHistogramBucketMonotone checks the log-linear index and bound
// functions agree: every value lands in a bucket whose bounds contain it.
func TestHistogramBucketMonotone(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 100, 1023, 1024, 1 << 20, 1 << 41} {
		i := histIdx(v)
		lo, hi := histBound(i), histBound(i+1)
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket %d with bounds [%d, %d)", v, i, lo, hi)
		}
	}
}

func TestRegistryReuseAndReplace(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("t_same", "k", "v")
	c2 := r.Counter("t_same", "k", "v")
	if c1 != c2 {
		t.Fatal("same identity should return the same counter")
	}
	// A func-backed registration replaces, and the latest fn owns the series.
	r.GaugeFunc("t_fn", func() float64 { return 1 })
	r.GaugeFunc("t_fn", func() float64 { return 2 })
	if m, ok := Find(r.Snapshot(), "t_fn"); !ok || m.Value != 2 {
		t.Fatalf("replaced func gauge = %+v (found %v)", m, ok)
	}
}

func TestMetricLabel(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_lbl", "bus", "home", "peer", `we"ird\`)
	snap := r.Snapshot()
	m, ok := Find(snap, "t_lbl", "bus", "home", "peer", `we"ird\`)
	if !ok {
		t.Fatalf("series not found in %+v", snap)
	}
	if got := m.Label("bus"); got != "home" {
		t.Errorf("Label(bus) = %q", got)
	}
	if got := m.Label("peer"); got != `we"ird\` {
		t.Errorf("Label(peer) = %q", got)
	}
	if got := m.Label("absent"); got != "" {
		t.Errorf("Label(absent) = %q", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	armed(t)
	r := NewRegistry()
	r.Counter("t_prom_total", "bus", "b").Add(3)
	r.GaugeFunc("t_prom_depth", func() float64 { return 9 })
	h := r.Histogram("t_prom_ns")
	h.Observe(100)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE t_prom_total counter",
		`t_prom_total{bus="b"} 3`,
		"# TYPE t_prom_depth gauge",
		"t_prom_depth 9",
		"# TYPE t_prom_ns histogram",
		`t_prom_ns_bucket{le="+Inf"} 1`,
		"t_prom_ns_sum 100",
		"t_prom_ns_count 1",
		"# TYPE t_prom_ns_quantile gauge",
		`t_prom_ns_quantile{quantile="0.5"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q in:\n%s", want, out)
		}
	}
}

// TestTraceSamplingRate: at a rate of one-in-ten, any window of 100
// consecutive publishes yields exactly 10 sampled traces, regardless of
// where the global tick counter started.
func TestTraceSamplingRate(t *testing.T) {
	SetTraceSampling(10)
	t.Cleanup(func() { SetTraceSampling(0) })
	sampled := 0
	for i := 0; i < 100; i++ {
		if tc, ok := StartTrace(); ok {
			if tc.ID.IsZero() || tc.Hop != 0 || tc.Clock == nil {
				t.Fatalf("sampled context = %+v, want hop 0 with a stage clock", tc)
			}
			sampled++
		}
	}
	if sampled != 10 {
		t.Fatalf("sampled %d of 100 at rate 10, want exactly 10", sampled)
	}
	SetTraceSampling(0)
	for i := 0; i < 100; i++ {
		if _, ok := StartTrace(); ok {
			t.Fatal("sampled while head sampling disabled")
		}
	}
}

func TestSpanRingBounded(t *testing.T) {
	ResetSpans()
	t.Cleanup(ResetSpans)
	ctx := TraceContext{ID: TraceID{Hi: 1, Lo: 2}}
	const extra = 100
	for i := 0; i < spanRingCap+extra; i++ {
		RecordSpan(ctx, "node", "publish", "", "", "")
	}
	if n := len(Spans()); n != spanRingCap {
		t.Fatalf("buffered spans = %d, want cap %d", n, spanRingCap)
	}
	if ev := SpansEvicted(); ev != extra {
		t.Fatalf("evicted = %d, want %d", ev, extra)
	}
}

func TestRecordSpanErrorMintsTrace(t *testing.T) {
	ResetSpans()
	t.Cleanup(ResetSpans)
	// A zero context with no error records nothing and returns the zero ID.
	if id := RecordSpan(TraceContext{}, "n", "deliver", "", "", ""); !id.IsZero() {
		t.Fatalf("untraced no-error span minted ID %s", id)
	}
	if len(Spans()) != 0 {
		t.Fatal("untraced no-error span was buffered")
	}
	// A zero context WITH an error mints an ID (always-sample-on-error).
	id := RecordSpan(TraceContext{}, "n", "deny", "a", "b", "denied by IFC")
	if id.IsZero() {
		t.Fatal("error span should mint a trace ID")
	}
	spans := Spans()
	if len(spans) != 1 || spans[0].Trace != id || spans[0].Err != "denied by IFC" {
		t.Fatalf("error span = %+v", spans)
	}
}

// TestSpanRingEvictionVsReadRace wraps the ring repeatedly from several
// writers while readers drain Spans/Traces and a resetter clears it —
// run under -race this pins the eviction path safe against concurrent
// reads (the /traces endpoint scraping mid-incident). Every observed
// snapshot must also be internally consistent: never larger than the
// ring and grouped traces never out of span order.
func TestSpanRingEvictionVsReadRace(t *testing.T) {
	ResetSpans()
	t.Cleanup(ResetSpans)
	const writers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var recorded atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := TraceContext{ID: TraceID{Hi: uint64(w + 1), Lo: 1}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				RecordSpan(ctx, "node", "publish", "src", "dst", "")
				recorded.Add(1)
			}
		}(w)
	}
	for i := 0; i < 200 || recorded.Load() < 2*spanRingCap; i++ {
		if spans := Spans(); len(spans) > spanRingCap {
			t.Errorf("snapshot of %d spans exceeds ring cap %d", len(spans), spanRingCap)
		}
		total := 0
		for _, tr := range Traces() {
			total += len(tr.Spans)
		}
		if total > spanRingCap {
			t.Errorf("traces carry %d spans, ring cap is %d", total, spanRingCap)
		}
		if i%50 == 49 {
			ResetSpans()
		}
	}
	close(stop)
	wg.Wait()
	if recorded.Load() < spanRingCap {
		t.Fatalf("writers recorded only %d spans; the ring (cap %d) was never stressed",
			recorded.Load(), spanRingCap)
	}
}

func TestParseTraceIDRoundTrip(t *testing.T) {
	id := TraceID{Hi: 0xdeadbeef01020304, Lo: 0x05060708090a0b0c}
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("round trip = %v, %v", got, ok)
	}
	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("g", 32)} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestTracesGroupsByID(t *testing.T) {
	ResetSpans()
	t.Cleanup(ResetSpans)
	a := TraceContext{ID: TraceID{Lo: 1}}
	b := TraceContext{ID: TraceID{Lo: 2}}
	RecordSpan(a, "n1", "publish", "", "", "")
	RecordSpan(b, "n1", "publish", "", "", "")
	RecordSpan(a, "n2", "deliver", "", "", "")
	traces := Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	if traces[0].ID != a.ID || len(traces[0].Spans) != 2 {
		t.Fatalf("first trace = %+v", traces[0])
	}
	if traces[1].ID != b.ID || len(traces[1].Spans) != 1 {
		t.Fatalf("second trace = %+v", traces[1])
	}
}
