package sbus

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"

	"lciot/internal/ifc"
	"lciot/internal/msg"
)

// TestConcurrentPublishAndReconfigure drives the lock-free routing
// snapshot: publishers hammer the hot path while the control plane
// registers components, connects, disconnects and re-evaluates channels.
// Run under -race this pins the copy-on-write discipline.
func TestConcurrentPublishAndReconfigure(t *testing.T) {
	bus := NewShardedBus("hospital-bus", 1, openACL(), nil, nil)
	rec := &sinkRecorder{}
	src, err := bus.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("ann-analyser", "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := vitalsMessage("ann", 72)
			for i := 0; i < 300; i++ {
				if _, err := src.Publish("out", m); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := "sink" + strconv.Itoa(i)
			if _, err := bus.Register(name, "hospital", annCtx(), nil,
				EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
				t.Error(err)
				return
			}
			if err := bus.Connect("hospital", "ann-device.out", name+".in"); err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if err := bus.Disconnect("hospital", "ann-device.out", name+".in"); err != nil {
					t.Error(err)
					return
				}
			}
			bus.reevaluate("ann-device")
		}
	}()
	wg.Wait()

	// The original channel must have survived every snapshot swap, and the
	// audit chain (fed asynchronously from the delivery path) must verify.
	if rec.count() < 4*300 {
		t.Fatalf("recorder saw %d deliveries, want >= 1200", rec.count())
	}
	if bad, err := bus.Log().Verify(); err != nil || bad != -1 {
		t.Fatalf("audit Verify = %d, %v", bad, err)
	}
}

// TestRepeatedConnectStaysSingleRoute pins the bySrc index against
// duplicate accumulation: reconnecting an existing channel must not create
// a second delivery route, and disconnecting must actually stop delivery.
func TestRepeatedConnectStaysSingleRoute(t *testing.T) {
	bus := NewShardedBus("hospital-bus", 1, openACL(), nil, nil)
	rec := &sinkRecorder{}
	src, err := bus.Register("ann-device", "hospital", annCtx(), nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: vitalsSchema()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("ann-analyser", "hospital", annCtx(), rec.handler(),
		EndpointSpec{Name: "in", Dir: Sink, Schema: vitalsSchema()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := bus.Connect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := src.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 1 {
		t.Fatalf("publish after repeated connect delivered %d times, err %v; want 1", n, err)
	}
	if err := bus.Disconnect("hospital", "ann-device.out", "ann-analyser.in"); err != nil {
		t.Fatal(err)
	}
	if n, err := src.Publish("out", vitalsMessage("ann", 72)); err != nil || n != 0 {
		t.Fatalf("publish after disconnect delivered %d times, err %v; want 0", n, err)
	}
	if rec.count() != 1 {
		t.Fatalf("recorder saw %d deliveries, want 1", rec.count())
	}
}

// TestInstallGateControlPlane checks the gate control ops: AC enforcement,
// audit records, and route-cache invalidation visible through the bus.
func TestInstallGateControlPlane(t *testing.T) {
	bus := NewShardedBus("hospital-bus", 1, openACL(), nil, nil)
	med := ifc.MustContext([]ifc.Tag{"medical", "ann"}, nil)
	research := ifc.MustContext([]ifc.Tag{"research"}, nil)

	if _, ok := bus.Gates().Route(med, research); ok {
		t.Fatal("route existed before any gate")
	}
	if err := bus.InstallGate("nobody", &ifc.Gate{Name: "anon", Input: med, Output: research}); err == nil {
		t.Fatal("unauthorised gate install accepted")
	}
	if err := bus.InstallGate("hospital", &ifc.Gate{Name: "anon", Input: med, Output: research}); err != nil {
		t.Fatal(err)
	}
	if via, ok := bus.Gates().Route(med, research); !ok || via != "anon" {
		t.Fatalf("route after install = %q, %v", via, ok)
	}
	if err := bus.RemoveGate("hospital", "anon"); err != nil {
		t.Fatal(err)
	}
	if err := bus.RemoveGate("hospital", "anon"); err == nil {
		t.Fatal("double remove succeeded")
	}
	if _, ok := bus.Gates().Route(med, research); ok {
		t.Fatal("route survived gate removal")
	}
}

// TestRoutingIndexInvariant drives a seeded random mix of Connect,
// ConnectMany (with repeated keys and replacements of live channels),
// Disconnect and context changes that tear channels down, at several
// shard counts. After every step each shard's bySrc and byComp must equal
// a brute-force rebuild from the union of every shard's channel table,
// and no key may be owned by two shards.
func TestRoutingIndexInvariant(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				testRoutingIndexInvariant(t, shards, seed)
			}
		})
	}
}

func testRoutingIndexInvariant(t *testing.T, shards int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	bus := NewShardedBus("inv", shards, permissiveACL(), nil, nil)
	defer bus.Close()
	schema := msg.MustSchema("m", ifc.EmptyLabel, msg.Field{Name: "v", Type: msg.TFloat})
	ctxs := []ifc.SecurityContext{
		{},
		ifc.MustContext([]ifc.Tag{"a"}, nil),
		ifc.MustContext([]ifc.Tag{"a", "b"}, nil),
	}
	const nComp = 10
	names := make([]string, nComp)
	for i := range names {
		names[i] = "c" + strconv.Itoa(i)
		c, err := bus.Register(names[i], "p", ctxs[r.Intn(len(ctxs))], nil,
			EndpointSpec{Name: "out", Dir: Source, Schema: schema},
			EndpointSpec{Name: "in", Dir: Sink, Schema: schema})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Entity().GrantPrivileges(ifc.OwnerPrivileges("a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	randPair := func() [2]string {
		return [2]string{names[r.Intn(nComp)] + ".out", names[r.Intn(nComp)] + ".in"}
	}
	legal := func(p [2]string) bool {
		src, _ := bus.Component(p[0][:len(p[0])-len(".out")])
		dst, _ := bus.Component(p[1][:len(p[1])-len(".in")])
		return src.Context().CanFlowTo(dst.Context())
	}

	for step := 0; step < 150; step++ {
		switch op := r.Intn(4); op {
		case 0:
			p := randPair()
			if err := bus.Connect("p", p[0], p[1]); (err == nil) != legal(p) {
				t.Fatalf("seed %d step %d: Connect %v: %v", seed, step, p, err)
			}
		case 1:
			// Legal pairs only (one refusal aborts the batch), mixing live
			// channels to replace with repeats of pairs already in the batch.
			var batch [][2]string
			live := bus.Channels()
			for len(batch) < 6 {
				switch k := r.Intn(3); {
				case k == 0 && len(batch) > 0:
					batch = append(batch, batch[r.Intn(len(batch))])
				case k == 1 && len(live) > 0:
					var p [2]string
					fmt.Sscanf(live[r.Intn(len(live))], "%s -> %s", &p[0], &p[1])
					batch = append(batch, p)
				default:
					if p := randPair(); legal(p) {
						batch = append(batch, p)
					}
				}
			}
			if err := bus.ConnectMany("p", batch); err != nil {
				t.Fatalf("seed %d step %d: ConnectMany %v: %v", seed, step, batch, err)
			}
		case 2:
			p := randPair()
			if live := bus.Channels(); len(live) > 0 && r.Intn(4) > 0 {
				fmt.Sscanf(live[r.Intn(len(live))], "%s -> %s", &p[0], &p[1])
			}
			if err := bus.Disconnect("p", p[0], p[1]); err != nil && !errors.Is(err, ErrNoChannel) {
				t.Fatalf("seed %d step %d: Disconnect %v: %v", seed, step, p, err)
			}
		case 3:
			name := names[r.Intn(nComp)]
			if err := bus.SetComponentContext("p", name, ctxs[r.Intn(len(ctxs))]); err != nil {
				t.Fatalf("seed %d step %d: SetComponentContext %s: %v", seed, step, name, err)
			}
		}
		checkRoutingIndexes(t, bus, fmt.Sprintf("seed %d step %d", seed, step))
	}
}

// checkRoutingIndexes rebuilds every shard's bySrc and byComp from the
// union of the shards' channel tables and compares them with what the
// shards hold.
func checkRoutingIndexes(t *testing.T, bus *Bus, where string) {
	t.Helper()
	n := len(bus.shards)
	wantSrc := make([]map[string][]string, n)
	wantComp := make([]map[string][]string, n)
	for i := range wantSrc {
		wantSrc[i], wantComp[i] = map[string][]string{}, map[string][]string{}
	}
	owner := map[channelKey]int{}
	for i, sh := range bus.shards {
		var chs []*channel
		rt := sh.routing.Load()
		rt.channels.each(func(key channelKey, ch *channel) {
			if key != ch.key {
				t.Fatalf("%s: shard %d holds %v under key %v", where, i, ch.key, key)
			}
			chs = append(chs, ch)
		})
		if rt.channels.len() != len(chs) {
			t.Fatalf("%s: shard %d channels.len() = %d, holds %d", where, i, rt.channels.len(), len(chs))
		}
		for _, ch := range chs {
			key := ch.key
			if prev, dup := owner[key]; dup {
				t.Fatalf("%s: key %v owned by shards %d and %d", where, key, prev, i)
			}
			owner[key] = i
			srcName := ch.srcComp.Name()
			if home := bus.ShardOf(srcName); home != i || ch.srcShard != i {
				t.Fatalf("%s: %v on shard %d, srcShard %d, source homed on %d", where, key, i, ch.srcShard, home)
			}
			id := key.src + " -> " + key.dst
			wantSrc[i][key.src] = append(wantSrc[i][key.src], id)
			wantComp[i][srcName] = append(wantComp[i][srcName], id)
			if ch.dstComp != nil && ch.dstComp != ch.srcComp {
				j := bus.ShardOf(ch.dstComp.Name())
				if ch.dstShard != j {
					t.Fatalf("%s: %v dstShard %d, sink homed on %d", where, key, ch.dstShard, j)
				}
				wantComp[j][ch.dstComp.Name()] = append(wantComp[j][ch.dstComp.Name()], id)
			}
		}
	}
	for i, sh := range bus.shards {
		rt := sh.routing.Load()
		compare := func(what string, idx *cowMap[string, chanList], want map[string][]string) {
			t.Helper()
			for _, ids := range want {
				sort.Strings(ids)
			}
			if got := indexIDs(idx); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: shard %d %s\n got: %v\nwant: %v", where, i, what, got, want)
			}
		}
		compare("bySrc", &rt.bySrc, wantSrc[i])
		compare("byComp", &rt.byComp, wantComp[i])
	}
}

// indexIDs renders an index as sorted "src -> dst" lists per entry; an
// empty entry shows as an empty list, which no rebuild produces.
func indexIDs(idx *cowMap[string, chanList]) map[string][]string {
	out := make(map[string][]string, idx.len())
	idx.each(func(name string, l chanList) {
		ids := []string{}
		for _, ch := range l.chs {
			ids = append(ids, ch.key.src+" -> "+ch.key.dst)
		}
		sort.Strings(ids)
		out[name] = ids
	})
	return out
}

// FuzzRouteEdits decodes its input into Register, Connect, Disconnect,
// ConnectMany and SetComponentContext calls on buses of 1, 2 and 4
// shards, and after every call checks the routing-index invariant: a
// channel exists iff its bySrc and byComp entries exist.
func FuzzRouteEdits(f *testing.F) {
	f.Add([]byte{0, 0x00, 0, 0x11, 0, 0x22, 1, 0x10, 3, 2, 0x21, 0x01, 4, 0x21, 2, 0x10, 1, 0x02})
	f.Add([]byte{0, 0x03, 0, 0x14, 0, 0x05, 3, 3, 0x43, 0x54, 0x35, 4, 0x14, 4, 0x04, 1, 0x43, 2, 0x43})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shards := range []int{1, 2, 4} {
			fuzzRouteEdits(t, shards, data)
		}
	})
}

// fuzzRouteEdits replays data on a fresh bus as up to 64 calls, each an
// opcode byte followed by argument bytes naming one of eight components
// (low and high nibble for a channel's two ends) and one of three
// contexts.
func fuzzRouteEdits(t *testing.T, shards int, data []byte) {
	bus := NewShardedBus("fuzz", shards, permissiveACL(), nil, nil)
	defer bus.Close()
	schema := msg.MustSchema("m", ifc.EmptyLabel, msg.Field{Name: "v", Type: msg.TFloat})
	ctxs := []ifc.SecurityContext{
		{},
		ifc.MustContext([]ifc.Tag{"a"}, nil),
		ifc.MustContext([]ifc.Tag{"a", "b"}, nil),
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	name := func(b int) string { return "c" + strconv.Itoa(b&7) }
	pair := func() [2]string {
		b := next()
		return [2]string{name(b) + ".out", name(b>>4) + ".in"}
	}
	for step := 0; len(data) > 0 && step < 64; step++ {
		var call string
		switch op := next() % 5; op {
		case 0:
			b := next()
			call = "Register " + name(b)
			c, err := bus.Register(name(b), "p", ctxs[(b>>4)%3], nil,
				EndpointSpec{Name: "out", Dir: Source, Schema: schema},
				EndpointSpec{Name: "in", Dir: Sink, Schema: schema})
			if err == nil {
				if err := c.Entity().GrantPrivileges(ifc.OwnerPrivileges("a", "b")); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			p := pair()
			call = fmt.Sprint("Connect ", p)
			_ = bus.Connect("p", p[0], p[1]) // refusals leave routing as it was
		case 2:
			p := pair()
			call = fmt.Sprint("Disconnect ", p)
			_ = bus.Disconnect("p", p[0], p[1])
		case 3:
			batch := make([][2]string, next()%4+1)
			for i := range batch {
				batch[i] = pair()
			}
			call = fmt.Sprint("ConnectMany ", batch)
			_ = bus.ConnectMany("p", batch)
		case 4:
			b := next()
			call = "SetComponentContext " + name(b)
			_ = bus.SetComponentContext("p", name(b), ctxs[(b>>4)%3])
		}
		checkRoutingIndexes(t, bus, fmt.Sprintf("shards %d step %d (%s)", shards, step, call))
	}
}

// TestRoutingMutationAllocScaling pins a routing mutation's cost to what it
// touches: one Register plus one Connect on a bus of 5 000 components and
// 25 000 channels may allocate at most twice the bytes they allocate on a
// bus ten times smaller (whole-snapshot clones allocate about ten times
// more). It counts bytes and does no timing, so a loaded machine cannot
// make it flaky.
func TestRoutingMutationAllocScaling(t *testing.T) {
	smallReg, smallConn := mutationAllocs(t, 500)
	bigReg, bigConn := mutationAllocs(t, 5000)
	t.Logf("Register: %d B at 500 components, %d B at 5000; Connect: %d B, %d B",
		smallReg, bigReg, smallConn, bigConn)
	if small, big := smallReg+smallConn, bigReg+bigConn; big > 2*small {
		t.Errorf("Register+Connect allocate %d B on the large bus, %d B on the small one: more than 2x", big, small)
	}
}

// mutationAllocs builds a one-shard bus of n components wired in a ring of
// fan-out 5 (5n channels) and returns the bytes (MemStats.TotalAlloc) one
// Register of a new component and one Connect from it allocate, each the
// least of five tries, so a one-off allocation elsewhere in the process
// cannot inflate the figure.
func mutationAllocs(t *testing.T, n int) (register, connect uint64) {
	t.Helper()
	bus := NewShardedBus("scale", 1, permissiveACL(), nil, nil)
	defer bus.Close()
	schema := msg.MustSchema("m", ifc.EmptyLabel, msg.Field{Name: "v", Type: msg.TFloat})
	out := EndpointSpec{Name: "out", Dir: Source, Schema: schema}
	in := EndpointSpec{Name: "in", Dir: Sink, Schema: schema}
	for i := 0; i < n; i++ {
		if _, err := bus.Register(fmt.Sprintf("c-%05d", i), "p", ifc.SecurityContext{}, nil, out, in); err != nil {
			t.Fatal(err)
		}
	}
	var pairs [][2]string
	for i := 0; i < n; i++ {
		for j := 1; j <= 5; j++ {
			pairs = append(pairs, [2]string{fmt.Sprintf("c-%05d.out", i), fmt.Sprintf("c-%05d.in", (i+j)%n)})
		}
	}
	if err := bus.ConnectMany("p", pairs); err != nil {
		t.Fatal(err)
	}
	register, connect = math.MaxUint64, math.MaxUint64
	var ms runtime.MemStats
	for k := 0; k < 5; k++ {
		name := "new-" + strconv.Itoa(k)
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := bus.Register(name, "p", ifc.SecurityContext{}, nil, out, in); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		register = min(register, ms.TotalAlloc-before)
		before = ms.TotalAlloc
		if err := bus.Connect("p", name+".out", "c-00000.in"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		connect = min(connect, ms.TotalAlloc-before)
	}
	return register, connect
}
