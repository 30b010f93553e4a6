package sbus

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"lciot/internal/ac"
	"lciot/internal/ifc"
	"lciot/internal/msg"
)

func permissiveACL() *ac.ACL {
	var a ac.ACL
	a.DefineRole(ac.Role{Name: "any", Grants: []ac.Permission{{Action: "*", Resource: "**"}}})
	if err := a.Assign(ac.Assignment{Principal: "p", Role: "any", Args: map[string]string{}}); err != nil {
		panic(err)
	}
	return &a
}

// TestReevaluateIndexedMatchesBruteForce builds randomized topologies, walks
// the components through random context transitions, and after every change
// compares the bus's surviving channel set against a brute-force model that
// re-checks every channel's flow legality from scratch. It runs at several
// shard counts: the aggregated channel listing and the per-shard byComp
// indexes must agree with the model regardless of how components hash
// across shards.
func TestReevaluateIndexedMatchesBruteForce(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testReevaluateIndexedMatchesBruteForce(t, shards)
		})
	}
}

func testReevaluateIndexedMatchesBruteForce(t *testing.T, shards int) {
	schema := msg.MustSchema("m", ifc.EmptyLabel, msg.Field{Name: "v", Type: msg.TFloat})
	// A small lattice of contexts over tags {a, b}: public ⊑ {a} ⊑ {a,b}.
	ctxs := []ifc.SecurityContext{
		{},
		ifc.MustContext([]ifc.Tag{"a"}, nil),
		ifc.MustContext([]ifc.Tag{"a", "b"}, nil),
	}

	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		bus := NewShardedBus("bench", shards, permissiveACL(), nil, nil)
		defer bus.Close()

		nComp := r.Intn(8) + 4
		comps := make([]*Component, nComp)
		compCtx := make([]int, nComp)
		for i := range comps {
			compCtx[i] = r.Intn(len(ctxs))
			c, err := bus.Register("c"+strconv.Itoa(i), "p", ctxs[compCtx[i]], nil,
				EndpointSpec{Name: "out", Dir: Source, Schema: schema},
				EndpointSpec{Name: "in", Dir: Sink, Schema: schema})
			if err != nil {
				t.Fatal(err)
			}
			// Full privileges over the tag universe so any transition is legal.
			if err := c.Entity().GrantPrivileges(ifc.OwnerPrivileges("a", "b")); err != nil {
				t.Fatal(err)
			}
			comps[i] = c
		}

		// model maps "src -> dst" to the (srcIdx, dstIdx) pair of a live channel.
		type pair struct{ src, dst int }
		model := map[string]pair{}
		for tries := 0; tries < nComp*3; tries++ {
			si, di := r.Intn(nComp), r.Intn(nComp)
			if si == di {
				continue
			}
			src := comps[si].Name() + ".out"
			dst := comps[di].Name() + ".in"
			err := bus.Connect("p", src, dst)
			legal := ctxs[compCtx[si]].CanFlowTo(ctxs[compCtx[di]])
			if legal != (err == nil) {
				t.Fatalf("seed %d: connect %s->%s err=%v, model says legal=%v", seed, src, dst, err, legal)
			}
			if err == nil {
				model[src+" -> "+dst] = pair{si, di}
			}
		}

		for step := 0; step < 40; step++ {
			ci := r.Intn(nComp)
			to := r.Intn(len(ctxs))
			if err := comps[ci].SetContext(ctxs[to]); err != nil {
				t.Fatalf("seed %d step %d: SetContext: %v", seed, step, err)
			}
			compCtx[ci] = to

			// Brute force: a channel survives iff its endpoint contexts still
			// permit the flow. (Channels not touching ci cannot have changed,
			// but the reference deliberately re-checks everything.)
			var want []string
			for name, p := range model {
				if !ctxs[compCtx[p.src]].CanFlowTo(ctxs[compCtx[p.dst]]) {
					delete(model, name)
					continue
				}
				want = append(want, name)
			}
			sort.Strings(want)
			if want == nil {
				want = []string{}
			}
			got := bus.Channels()
			if got == nil {
				got = []string{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: after SetContext(c%d -> %v):\nbus:   %v\nmodel: %v",
					seed, step, ci, ctxs[to], got, want)
			}
		}
	}
}

// TestReevaluateSkipsUnaffectedChannels proves the byComp index prunes work:
// tearing through a context flip on one component must not re-check
// channels between other components. The observable proxy is the verified
// stamp — spectator channels keep their original stamp pointer identity.
func TestReevaluateSkipsUnaffectedChannels(t *testing.T) {
	schema := msg.MustSchema("m", ifc.EmptyLabel, msg.Field{Name: "v", Type: msg.TFloat})
	bus := NewShardedBus("bench", 1, permissiveACL(), nil, nil)
	ctxA := ifc.MustContext([]ifc.Tag{"a"}, nil)
	ctxAB := ifc.MustContext([]ifc.Tag{"a", "b"}, nil)

	mk := func(name string, ctx ifc.SecurityContext) *Component {
		c, err := bus.Register(name, "p", ctx, nil,
			EndpointSpec{Name: "out", Dir: Source, Schema: schema},
			EndpointSpec{Name: "in", Dir: Sink, Schema: schema})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Entity().GrantPrivileges(ifc.OwnerPrivileges("a", "b")); err != nil {
			t.Fatal(err)
		}
		return c
	}
	hot := mk("hot", ctxA)
	mk("hotsink", ctxAB)
	mk("s1", ctxA)
	mk("s2", ctxA)
	for _, conn := range [][2]string{{"hot.out", "hotsink.in"}, {"s1.out", "s2.in"}} {
		if err := bus.Connect("p", conn[0], conn[1]); err != nil {
			t.Fatal(err)
		}
	}

	spectator := bus.channelByKey(channelKey{src: "s1.out", dst: "s2.in"})
	before := spectator.verified.Load()

	for i := 0; i < 10; i++ {
		target := ctxAB
		if i%2 == 1 {
			target = ctxA
		}
		if err := hot.SetContext(target); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(bus.Channels()); got != 2 {
		t.Fatalf("channels fell to %d", got)
	}
	if spectator.verified.Load() != before {
		t.Fatal("spectator channel was re-stamped; reevaluate visited an unaffected channel")
	}
}

// TestReevaluateNoOpContextChangeSkipsChecks: transitioning to the identical
// context advances no generation, so even the component's own channels keep
// their stamps.
func TestReevaluateNoOpContextChangeSkipsChecks(t *testing.T) {
	schema := msg.MustSchema("m", ifc.EmptyLabel, msg.Field{Name: "v", Type: msg.TFloat})
	bus := NewShardedBus("bench", 1, permissiveACL(), nil, nil)
	ctxA := ifc.MustContext([]ifc.Tag{"a"}, nil)
	src, err := bus.Register("src", "p", ctxA, nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Entity().GrantPrivileges(ifc.OwnerPrivileges("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := bus.Register("dst", "p", ctxA, nil,
		EndpointSpec{Name: "in", Dir: Sink, Schema: schema}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Connect("p", "src.out", "dst.in"); err != nil {
		t.Fatal(err)
	}
	ch := bus.channelByKey(channelKey{src: "src.out", dst: "dst.in"})
	before := ch.verified.Load()
	if err := src.SetContext(ctxA); err != nil { // identical context
		t.Fatal(err)
	}
	if ch.verified.Load() != before {
		t.Fatal("no-op context change re-stamped the channel")
	}
	if got := fmt.Sprint(bus.Channels()); got != "[src.out -> dst.in]" {
		t.Fatalf("channels = %s", got)
	}
}
