package sbus

import (
	"errors"
	"fmt"
	"math/rand"
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
		for key, ch := range sh.routing.Load().channels {
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
		compare := func(what string, idx map[string][]*channel, want map[string][]string) {
			t.Helper()
			for _, ids := range want {
				sort.Strings(ids)
			}
			if got := indexIDs(idx); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: shard %d %s\n got: %v\nwant: %v", where, i, what, got, want)
			}
		}
		compare("bySrc", rt.bySrc, wantSrc[i])
		compare("byComp", rt.byComp, wantComp[i])
	}
}

// indexIDs renders an index as sorted "src -> dst" lists per entry; an
// empty entry shows as an empty list, which no rebuild produces.
func indexIDs(idx map[string][]*channel) map[string][]string {
	out := make(map[string][]string, len(idx))
	for name, chs := range idx {
		ids := []string{}
		for _, ch := range chs {
			ids = append(ids, ch.key.src+" -> "+ch.key.dst)
		}
		sort.Strings(ids)
		out[name] = ids
	}
	return out
}
