package core

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lciot/internal/audit"
	"lciot/internal/ctxmodel"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/sbus"
)

// TestSingleAppendPathModel checks the audit log's one ingest path against
// a model computed from the calls alone. Several goroutines interleave
// publishes, channel changes, context changes and policy firings on a
// two-shard domain: flow records stage on the shard's lane, control
// records on lane 0. Per goroutine, the chain must hold exactly the
// records of its calls, in call order; the chain must verify; and a sink
// must only ever be entered by one goroutine at a time, in seq order.
func TestSingleAppendPathModel(t *testing.T) {
	const workers, ops = 4, 300
	d, err := NewDomain("model", Options{Clock: newTestClock().Now, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var rules strings.Builder
	for g := 0; g < workers; g++ {
		fmt.Fprintf(&rules, "rule \"fire-%d\" { on context go%d do alert \"w%d\" }\n", g, g, g)
	}
	if err := d.LoadPolicy(rules.String()); err != nil {
		t.Fatal(err)
	}
	ctxA := ifc.MustContext([]ifc.Tag{"telemetry"}, nil)
	ctxB := ifc.MustContext([]ifc.Tag{"telemetry", "extra"}, nil)
	srcs := make([]*sbus.Component, workers)
	dsts := make([]string, workers)
	for g := 0; g < workers; g++ {
		name := fmt.Sprintf("src-w%d", g)
		if srcs[g], err = d.Bus().Register(name, "model", ctxA, nil,
			sbus.EndpointSpec{Name: "out", Dir: sbus.Source, Schema: telemetrySchema()}); err != nil {
			t.Fatal(err)
		}
		// Co-locate each sink with its source so deliveries run on the
		// publishing goroutine and stage in its program order.
		for k := 0; dsts[g] == ""; k++ {
			if dst := fmt.Sprintf("dst-w%d-%d", g, k); d.Bus().ShardOf(dst) == d.Bus().ShardOf(name) {
				dsts[g] = dst
			}
		}
		if _, err := d.Bus().Register(dsts[g], "model", ctxA, nil,
			sbus.EndpointSpec{Name: "in", Dir: sbus.Sink, Schema: telemetrySchema()}); err != nil {
			t.Fatal(err)
		}
		extra := ifc.MustLabel("extra")
		if err := d.Bus().GrantPrivileges(PolicyEnginePrincipal, dsts[g],
			ifc.Privileges{AddSecrecy: extra, RemoveSecrecy: extra}); err != nil {
			t.Fatal(err)
		}
	}

	start, _ := d.Log().Checkpoint()
	var inSink atomic.Int32
	var nextSeq atomic.Uint64
	var sinkFaults atomic.Int32
	nextSeq.Store(start)
	d.Log().AddSink(func(r audit.Record) {
		if inSink.Add(1) != 1 {
			sinkFaults.Add(1)
		}
		if r.Seq != nextSeq.Load() {
			sinkFaults.Add(1)
		}
		nextSeq.Store(r.Seq + 1)
		inSink.Add(-1)
	})

	// Each worker records the signature of every audit record its calls
	// produce, in call order.
	want := make([][]string, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			src, dst := srcs[g].Name(), dsts[g]
			srcOut, dstIn := src+".out", dst+".in"
			connected, wide := false, false
			for i := 0; i < ops; i++ {
				var err error
				switch op := rng.Intn(4); {
				case op == 0 && connected:
					m := msg.New("telemetry").Set("device", msg.Str(src)).Set("value", msg.Float(float64(i)))
					m.DataID = fmt.Sprintf("w%d/%d", g, i)
					_, err = srcs[g].Publish("out", m)
					want[g] = append(want[g], "flow "+m.DataID)
				case op <= 1 && !connected:
					err = d.Bus().Connect(PolicyEnginePrincipal, srcOut, dstIn)
					want[g] = append(want[g], "channel established")
					connected = true
				case op <= 1:
					err = d.Bus().Disconnect(PolicyEnginePrincipal, srcOut, dstIn)
					want[g] = append(want[g], "channel torn down")
					connected = false
				case op == 2:
					to := ctxA
					if wide = !wide; wide {
						to = ctxB
					}
					err = d.Bus().SetComponentContext(PolicyEnginePrincipal, dst, to)
					want[g] = append(want[g], "context "+to.String())
				default:
					d.Store().Set(fmt.Sprintf("go%d", g), ctxmodel.Number(float64(i)))
					want[g] = append(want[g], fmt.Sprintf("alert: w%d", g))
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	got := make([][]string, workers)
	for _, r := range d.Log().Select(func(r audit.Record) bool { return r.Seq >= start }) {
		g, sig := -1, ""
		entity := strings.TrimPrefix(string(r.Src), "model:")
		switch {
		case r.Kind == audit.FlowAllowed:
			sig = "flow " + r.DataID
			fmt.Sscanf(r.DataID, "w%d/", &g)
		case r.Kind == audit.ContextChange:
			sig = "context " + r.DstCtx.String()
			fmt.Sscanf(entity, "dst-w%d-", &g)
		case strings.HasPrefix(r.Note, "alert: "):
			sig = r.Note
			fmt.Sscanf(r.Note, "alert: w%d", &g)
		case strings.HasPrefix(r.Note, "channel "):
			sig = r.Note
			fmt.Sscanf(entity, "src-w%d", &g)
		}
		if g < 0 || g >= workers {
			t.Fatalf("record %d (%s %q) belongs to no worker", r.Seq, r.Kind, r.Note)
		}
		got[g] = append(got[g], sig)
	}
	for g := range want {
		if len(got[g]) != len(want[g]) {
			t.Fatalf("worker %d: chain holds %d records, calls made %d", g, len(got[g]), len(want[g]))
		}
		for i := range want[g] {
			if got[g][i] != want[g][i] {
				t.Fatalf("worker %d record %d: chain has %q, call order has %q", g, i, got[g][i], want[g][i])
			}
		}
	}
	if bad, err := d.Log().Verify(); err != nil {
		t.Fatalf("chain broken at %d: %v", bad, err)
	}
	if n := sinkFaults.Load(); n != 0 {
		t.Fatalf("sink entered concurrently or out of seq order %d times", n)
	}
	if head, _ := d.Log().Checkpoint(); nextSeq.Load() != head {
		t.Fatalf("sink saw records up to %d, chain head is %d", nextSeq.Load(), head)
	}
}
