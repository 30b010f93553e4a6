package sbus

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"lciot/internal/ifc"
	"lciot/internal/msg"
)

// nameOnShard finds a component name with the given prefix that hashes to
// the wanted shard — shard placement is a pure function of the name, so
// tests can construct topologies with known affinity.
func nameOnShard(b *Bus, prefix string, shard int) string {
	for k := 0; ; k++ {
		name := prefix + strconv.Itoa(k)
		if b.ShardOf(name) == shard {
			return name
		}
	}
}

func seqSchema() *msg.Schema {
	return msg.MustSchema("seq", ifc.EmptyLabel,
		msg.Field{Name: "src", Type: msg.TString, Required: true},
		msg.Field{Name: "n", Type: msg.TFloat, Required: true},
	)
}

// seqRecorder records, per source, the order sequence numbers arrived in.
type seqRecorder struct {
	mu    sync.Mutex
	seqs  map[string][]int
	total int
}

func (r *seqRecorder) handler() Handler {
	return func(m *msg.Message, _ Delivery) {
		src, _ := m.Get("src")
		n, _ := m.Get("n")
		r.mu.Lock()
		if r.seqs == nil {
			r.seqs = map[string][]int{}
		}
		r.seqs[src.Str] = append(r.seqs[src.Str], int(n.Float))
		r.total++
		r.mu.Unlock()
	}
}

func (r *seqRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// TestCrossShardHandoffOrdering is the handoff property test: sources on
// several shards publish numbered messages to sinks on other shards, and
// every sink must observe each source's sequence exactly once, in publish
// order — the per-channel FIFO guarantee the ring handoff provides while
// it has capacity. Topologies are randomized across seeds; run under
// -race this also pins the handoff path's memory discipline.
func TestCrossShardHandoffOrdering(t *testing.T) {
	const shards = 4
	for seed := int64(0); seed < 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		bus := NewShardedBus("sharded", shards, permissiveACL(), nil, nil)

		nSrc := r.Intn(3) + 2
		nSink := r.Intn(2) + 1
		const perSrc = 500

		recs := make([]*seqRecorder, nSink)
		sinkNames := make([]string, nSink)
		for i := range recs {
			recs[i] = &seqRecorder{}
			sinkNames[i] = nameOnShard(bus, fmt.Sprintf("sink-%d-", i), r.Intn(shards))
			if _, err := bus.Register(sinkNames[i], "p", ifc.SecurityContext{}, recs[i].handler(),
				EndpointSpec{Name: "in", Dir: Sink, Schema: seqSchema()}); err != nil {
				t.Fatal(err)
			}
		}
		srcs := make([]*Component, nSrc)
		for i := range srcs {
			// Place each source on a different shard than at least its first
			// sink, so handoffs actually cross shards.
			shard := (bus.ShardOf(sinkNames[0]) + 1 + r.Intn(shards-1)) % shards
			name := nameOnShard(bus, fmt.Sprintf("src-%d-", i), shard)
			c, err := bus.Register(name, "p", ifc.SecurityContext{}, nil,
				EndpointSpec{Name: "out", Dir: Source, Schema: seqSchema()})
			if err != nil {
				t.Fatal(err)
			}
			srcs[i] = c
			for _, sink := range sinkNames {
				if err := bus.Connect("p", name+".out", sink+".in"); err != nil {
					t.Fatal(err)
				}
			}
		}

		var wg sync.WaitGroup
		for _, src := range srcs {
			wg.Add(1)
			go func(c *Component) {
				defer wg.Done()
				for n := 0; n < perSrc; n++ {
					m := msg.New("seq").Set("src", msg.Str(c.Name())).Set("n", msg.Float(float64(n)))
					if _, err := c.Publish("out", m); err != nil {
						t.Error(err)
						return
					}
				}
			}(src)
		}
		wg.Wait()

		want := nSrc * perSrc
		for _, rec := range recs {
			rec := rec
			waitFor(t, func() bool { return rec.count() == want }, "all handoffs delivered")
			rec.mu.Lock()
			for src, got := range rec.seqs {
				if len(got) != perSrc {
					t.Fatalf("seed %d: sink saw %d messages from %s, want %d", seed, len(got), src, perSrc)
				}
				for n, v := range got {
					if v != n {
						t.Fatalf("seed %d: sink saw %s seq %d at position %d — handoff reordered", seed, src, v, n)
					}
				}
			}
			rec.mu.Unlock()
		}

		// Some deliveries must actually have crossed shards.
		var handoffs uint64
		for _, s := range bus.ShardStats() {
			handoffs += s.HandoffsIn + s.Overflow
		}
		if handoffs == 0 {
			t.Fatalf("seed %d: no cross-shard handoffs occurred; topology did not exercise the ring", seed)
		}
		bus.Close()
	}
}

// TestSetContextStormLeavesOtherShardsUncontended proves re-evaluation
// isolation directly: with one shard's write lock held hostage, a storm
// of SetContext calls on components homed on *other* shards must complete
// — their re-evaluation never touches the victim shard's lock, snapshot
// or stamps. On the old single-lock bus this test would deadlock.
func TestSetContextStormLeavesOtherShardsUncontended(t *testing.T) {
	const shards = 4
	bus := NewShardedBus("sharded", shards, permissiveACL(), nil, nil)
	defer bus.Close()
	schema := seqSchema()
	ctxA := ifc.MustContext([]ifc.Tag{"a"}, nil)

	mk := func(name string, ctx ifc.SecurityContext) *Component {
		c, err := bus.Register(name, "p", ctx, nil,
			EndpointSpec{Name: "out", Dir: Source, Schema: schema},
			EndpointSpec{Name: "in", Dir: Sink, Schema: schema})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Entity().GrantPrivileges(ifc.OwnerPrivileges("a")); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// Victim topology on shard 3: a connected pair that must stay untouched.
	victimShard := 3
	vSrc := mk(nameOnShard(bus, "victim-src-", victimShard), ctxA)
	vDst := mk(nameOnShard(bus, "victim-dst-", victimShard), ctxA)
	if bus.ShardOf(vDst.Name()) != victimShard {
		t.Fatalf("victim sink landed on shard %d", bus.ShardOf(vDst.Name()))
	}
	if err := bus.Connect("p", vSrc.Name()+".out", vDst.Name()+".in"); err != nil {
		t.Fatal(err)
	}

	// Storm topology on shards 0-2: sources with channels whose legality
	// flips with every context change, forcing real re-evaluation work.
	var stormers []*Component
	for s := 0; s < victimShard; s++ {
		src := mk(nameOnShard(bus, fmt.Sprintf("storm-src-%d-", s), s), ctxA)
		dst := mk(nameOnShard(bus, fmt.Sprintf("storm-dst-%d-", s), s), ctxA)
		if err := bus.Connect("p", src.Name()+".out", dst.Name()+".in"); err != nil {
			t.Fatal(err)
		}
		stormers = append(stormers, src)
	}

	// Hold the victim shard's write lock for the whole storm. Any storm
	// code path that needed it would deadlock (the test would time out).
	victim := bus.shards[victimShard]
	victim.mu.Lock()
	beforeRouting := victim.routing.Load()
	beforeReevals := victim.reevals.Load()
	beforeStamp := bus.channelByKey(channelKey{
		src: vSrc.Name() + ".out", dst: vDst.Name() + ".in"}).verified.Load()

	var wg sync.WaitGroup
	for _, c := range stormers {
		wg.Add(1)
		go func(c *Component) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				target := ctxA
				if i%2 == 0 {
					target = ifc.SecurityContext{}
				}
				if err := c.SetContext(target); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("SetContext storm blocked while another shard's lock was held")
	}

	victim.mu.Unlock()

	if victim.routing.Load() != beforeRouting {
		t.Fatal("storm on other shards swapped the victim shard's routing snapshot")
	}
	if got := victim.reevals.Load(); got != beforeReevals {
		t.Fatalf("victim shard recorded %d re-evaluations during a storm that never touched it", got-beforeReevals)
	}
	if bus.channelByKey(channelKey{src: vSrc.Name() + ".out", dst: vDst.Name() + ".in"}).verified.Load() != beforeStamp {
		t.Fatal("victim channel was re-stamped by a storm on other shards")
	}
}

// TestShardedConcurrentPublishAndReconfigure is the multi-shard analogue
// of TestConcurrentPublishAndReconfigure: publishers on every shard drive
// same- and cross-shard channels while the control plane churns
// registrations, connections and re-evaluations. Run under -race this
// pins the per-shard copy-on-write discipline and the ring handoff.
func TestShardedConcurrentPublishAndReconfigure(t *testing.T) {
	const shards = 4
	bus := NewShardedBus("sharded", shards, openACL(), nil, nil)
	defer bus.Close()
	rec := &sinkRecorder{}
	sinkName := nameOnShard(bus, "analyser-", 2)
	if _, err := bus.Register(sinkName, "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	var srcs []*Component
	for s := 0; s < shards; s++ {
		name := nameOnShard(bus, fmt.Sprintf("device-%d-", s), s)
		src, err := bus.Register(name, "hospital", annCtx(), nil,
			EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()})
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.Connect("hospital", name+".out", sinkName+".in"); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}

	var wg sync.WaitGroup
	for _, src := range srcs {
		wg.Add(1)
		go func(c *Component) {
			defer wg.Done()
			m := vitalsMessage("ann", 72)
			for i := 0; i < 300; i++ {
				if _, err := c.Publish("out", m); err != nil {
					t.Error(err)
					return
				}
			}
		}(src)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := "extra-sink" + strconv.Itoa(i)
			if _, err := bus.Register(name, "hospital", annCtx(), nil,
				EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
				t.Error(err)
				return
			}
			if err := bus.Connect("hospital", srcs[0].Name()+".out", name+".in"); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := bus.Disconnect("hospital", srcs[0].Name()+".out", name+".in"); err != nil {
					t.Error(err)
					return
				}
			}
			bus.reevaluate(srcs[0].Name())
		}
	}()
	wg.Wait()

	want := shards * 300
	waitFor(t, func() bool { return rec.count() >= want }, "all publishes delivered")
	if bad, err := bus.Log().Verify(); err != nil || bad != -1 {
		t.Fatalf("audit Verify = %d, %v", bad, err)
	}
}

// TestPublishAfterCloseDeliversInline pins Close's usability contract:
// after Close the shard dispatchers are gone, so cross-shard deliveries
// must fall back to inline execution on the publisher's goroutine. A
// post-Close publish must never park messages on an undrained ring while
// reporting them delivered — the regression this guards against lost up
// to a full ring per shard silently.
func TestPublishAfterCloseDeliversInline(t *testing.T) {
	const shards = 4
	bus := NewShardedBus("sharded", shards, permissiveACL(), nil, nil)
	rec := &seqRecorder{}
	sink := nameOnShard(bus, "sink-", 0)
	if _, err := bus.Register(sink, "p", ifc.SecurityContext{}, rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: seqSchema()}); err != nil {
		t.Fatal(err)
	}
	src, err := bus.Register(nameOnShard(bus, "src-", 1), "p", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: seqSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Connect("p", src.Name()+".out", sink+".in"); err != nil {
		t.Fatal(err)
	}

	bus.Close()
	bus.Close() // idempotent

	// Publish more than a ring could absorb: if any message were still
	// being enqueued the count below could not be reached synchronously.
	const n = 2 * handoffRingSize
	for i := 0; i < n; i++ {
		m := msg.New("seq").Set("src", msg.Str(src.Name())).Set("n", msg.Float(float64(i)))
		got, err := src.Publish("out", m)
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("post-Close publish reported %d deliveries, want 1", got)
		}
	}
	// Inline deliveries are synchronous — no waitFor: every message must
	// already have reached the handler.
	if got := rec.count(); got != n {
		t.Fatalf("post-Close bus delivered %d of %d messages — handoffs stranded on a dead ring", got, n)
	}
}

// TestConnectManyConcurrentConnectNoDuplicates races the bulk path
// against single Connects on the same keys, with predecessors installed
// so both sides retire-and-replace. Whatever interleaving wins, each key
// must end with exactly one live bySrc entry — one delivery per publish
// — and Disconnect must remove it completely. Run under -race this also
// pins the locking of a many-shard applyRoutes batch against single-key
// edits on the same shards.
func TestConnectManyConcurrentConnectNoDuplicates(t *testing.T) {
	const shards = 4
	const comps = 8
	for round := 0; round < 20; round++ {
		bus := NewShardedBus("sharded", shards, permissiveACL(), nil, nil)
		schema := seqSchema()
		var pairs [][2]string
		for i := 0; i < comps; i++ {
			name := "c" + strconv.Itoa(i)
			if _, err := bus.Register(name, "p", ifc.SecurityContext{}, nil,
				EndpointSpec{Name: "out", Dir: Source, Schema: schema},
				EndpointSpec{Name: "in", Dir: Sink, Schema: schema}); err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, [2]string{name + ".out", "c" + strconv.Itoa((i+1)%comps) + ".in"})
		}
		// Pre-install every channel so both racers have predecessors to retire.
		if err := bus.ConnectMany("p", pairs); err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := bus.ConnectMany("p", pairs); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			for _, p := range pairs {
				if err := bus.Connect("p", p[0], p[1]); err != nil {
					t.Error(err)
				}
			}
		}()
		wg.Wait()

		m := msg.New("seq").Set("src", msg.Str("x")).Set("n", msg.Float(0))
		for i, p := range pairs {
			c, _ := bus.Component("c" + strconv.Itoa(i))
			got, err := c.Publish("out", m)
			if err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("round %d: publish on %s hit %d channels, want 1 — duplicate bySrc entry", round, p[0], got)
			}
			if err := bus.Disconnect("p", p[0], p[1]); err != nil {
				t.Fatal(err)
			}
			if got, _ := c.Publish("out", m); got != 0 {
				t.Fatalf("round %d: %d deliveries after Disconnect — orphaned bySrc entry survived", round, got)
			}
		}
		bus.Close()
	}
}

// TestConnectManyMatchesConnect checks the bulk establishment path against
// the one-at-a-time path: same channel set, same routing behaviour, and
// publish traverses bulk-established channels normally.
func TestConnectManyMatchesConnect(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			a := NewShardedBus("a", shards, permissiveACL(), nil, nil)
			b := NewShardedBus("b", shards, permissiveACL(), nil, nil)
			defer a.Close()
			defer b.Close()
			schema := seqSchema()
			var pairs [][2]string
			for _, bus := range []*Bus{a, b} {
				for i := 0; i < 6; i++ {
					if _, err := bus.Register("c"+strconv.Itoa(i), "p", ifc.SecurityContext{}, nil,
						EndpointSpec{Name: "out", Dir: Source, Schema: schema},
						EndpointSpec{Name: "in", Dir: Sink, Schema: schema}); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 6; i++ {
				for j := 0; j < 6; j++ {
					if i == j {
						continue
					}
					pairs = append(pairs, [2]string{
						"c" + strconv.Itoa(i) + ".out", "c" + strconv.Itoa(j) + ".in"})
				}
			}
			for _, p := range pairs {
				if err := a.Connect("p", p[0], p[1]); err != nil {
					t.Fatal(err)
				}
			}
			// Duplicate a few pairs: ConnectMany must dedup like repeated Connect.
			if err := b.ConnectMany("p", append(pairs, pairs[0], pairs[1])); err != nil {
				t.Fatal(err)
			}
			got, want := fmt.Sprint(b.Channels()), fmt.Sprint(a.Channels())
			if got != want {
				t.Fatalf("ConnectMany channels = %v\nConnect channels = %v", got, want)
			}

			rec := &seqRecorder{}
			if _, err := b.Register("probe-sink", "p", ifc.SecurityContext{}, rec.handler(),
				EndpointSpec{Name: "in", Dir: Sink, Schema: schema}); err != nil {
				t.Fatal(err)
			}
			if err := b.ConnectMany("p", [][2]string{{"c0.out", "probe-sink.in"}}); err != nil {
				t.Fatal(err)
			}
			c0, _ := b.Component("c0")
			m := msg.New("seq").Set("src", msg.Str("c0")).Set("n", msg.Float(1))
			if _, err := c0.Publish("out", m); err != nil {
				t.Fatal(err)
			}
			waitFor(t, func() bool { return rec.count() == 1 }, "bulk channel delivered")

			// Teardown still works channel-by-channel on bulk-established state.
			if err := b.Disconnect("p", "c0.out", "probe-sink.in"); err != nil {
				t.Fatal(err)
			}
			if _, err := c0.Publish("out", m); err != nil {
				t.Fatal(err)
			}
			time.Sleep(10 * time.Millisecond)
			if rec.count() != 1 {
				t.Fatal("delivery after Disconnect of bulk-established channel")
			}
		})
	}
}
