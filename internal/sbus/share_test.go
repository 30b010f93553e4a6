package sbus

import (
	"hash/fnv"
	"strconv"
	"sync/atomic"
	"testing"

	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
)

func sharedSchema() *msg.Schema {
	return msg.MustSchema("shared", ifc.EmptyLabel,
		msg.Field{Name: "patient", Type: msg.TString, Required: true},
		msg.Field{Name: "hr", Type: msg.TFloat},
		msg.Field{Name: "blob", Type: msg.TBytes},
		msg.Field{Name: "name", Type: msg.TString, Secrecy: ifc.MustLabel("C")},
	)
}

// messageHash covers everything a handler can read of a message: its
// encoding (type, DataID, attributes) and its trace.
func messageHash(t *testing.T, m *msg.Message) uint64 {
	b, err := msg.EncodeBinary(m)
	if err != nil {
		t.Error(err)
	}
	h := fnv.New64a()
	h.Write(b)
	h.Write([]byte(m.Trace.ID.String()))
	h.Write([]byte{m.Trace.Hop})
	return h.Sum64()
}

// TestSharedDeliveryFanOut publishes each message to four sinks, one per
// shard (three through hand-off), while one of them re-publishes the
// delivery it shares with the others under forced trace sampling. Every
// handler hashes the message at entry and exit; the sinks cleared for
// every attribute must receive the publisher's own message, the uncleared
// one a copy without the tagged attribute, and nobody — the re-publishing
// bus included — may change what another goroutine is reading. Run it
// with -race -count=20.
func TestSharedDeliveryFanOut(t *testing.T) {
	const shards, rounds = 4, 200
	telemetry.ResetSpans()
	t.Cleanup(func() {
		telemetry.SetTraceSampling(0)
		telemetry.ResetSpans()
	})
	bus := NewShardedBus("fanout", shards, permissiveACL(), nil, nil)
	defer bus.Close()
	schema := sharedSchema()

	var cur atomic.Pointer[msg.Message] // the message being published this round
	var want atomic.Uint64              // its hash before Publish
	// done receives one value per delivery; 5 per round, buffered so no
	// handler ever blocks on it.
	done := make(chan struct{}, 5)
	check := func(sink string, m *msg.Message, d Delivery, body func()) {
		in := messageHash(t, m)
		body()
		if out := messageHash(t, m); out != in {
			t.Errorf("%s: message changed during its handler", sink)
		}
		if _, ok := m.Get("name"); ok && len(d.Quenched) > 0 {
			t.Errorf("%s: quenched %v but still holds the attribute", sink, d.Quenched)
		}
		if len(d.Quenched) == 0 {
			if m != cur.Load() && sink != "echo" {
				t.Errorf("%s: got a copy, want the publisher's message", sink)
			}
			if in != want.Load() && sink != "echo" {
				t.Errorf("%s: delivered message differs from the published one", sink)
			}
		}
		done <- struct{}{}
	}
	read := func(m *msg.Message) {
		for _, name := range m.FieldNames() {
			m.Get(name)
		}
		_ = m.Trace.ID.String()
	}

	src, err := bus.Register(nameOnShard(bus, "src-", 0), "p", ifc.SecurityContext{}, nil,
		EndpointSpec{Name: "out", Dir: Source, Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	echo := nameOnShard(bus, "echo-", 1)
	if _, err := bus.Register(echo, "p", ifc.SecurityContext{}, func(m *msg.Message, d Delivery) {
		check("echo", m, d, func() {
			if m.Trace.IsZero() {
				t.Error("echo: the re-publish was not sampled")
			}
			read(m)
		})
	}, EndpointSpec{Name: "in", Dir: Sink, Schema: schema}); err != nil {
		t.Fatal(err)
	}
	for shard := 0; shard < shards; shard++ {
		name := nameOnShard(bus, "sink-"+strconv.Itoa(shard)+"-", shard)
		var c *Component
		handler := func(m *msg.Message, d Delivery) {
			check(name, m, d, func() { read(m) })
		}
		if shard == 2 {
			handler = func(m *msg.Message, d Delivery) {
				check(name, m, d, func() {
					telemetry.SetTraceSampling(1)
					if n, err := c.Publish("out", m); err != nil || n != 1 {
						t.Errorf("re-publish = %d, %v", n, err)
					}
					read(m)
				})
			}
		}
		c, err = bus.Register(name, "p", ifc.SecurityContext{}, handler,
			EndpointSpec{Name: "in", Dir: Sink, Schema: schema},
			EndpointSpec{Name: "out", Dir: Source, Schema: schema})
		if err != nil {
			t.Fatal(err)
		}
		if shard != 3 {
			c.SetClearance(ifc.MustLabel("C"))
		}
		if err := bus.Connect("p", src.Name()+".out", name+".in"); err != nil {
			t.Fatal(err)
		}
		if shard == 2 {
			if err := bus.Connect("p", name+".out", echo+".in"); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i := 0; i < rounds; i++ {
		m := msg.New("shared").Set("patient", msg.Str("ann")).Set("hr", msg.Float(float64(i))).
			Set("blob", msg.Bytes([]byte{byte(i), 1, 2, 3})).Set("name", msg.Str("Ann Smith"))
		m.DataID = "reading-" + strconv.Itoa(i)
		cur.Store(m)
		want.Store(messageHash(t, m))
		telemetry.SetTraceSampling(0) // the publish itself is unsampled
		if n, err := src.Publish("out", m); err != nil || n != shards {
			t.Fatalf("round %d: publish = %d, %v", i, n, err)
		}
		for k := 0; k < 5; k++ {
			<-done
		}
		if got := messageHash(t, m); got != want.Load() || !m.Trace.IsZero() {
			t.Fatalf("round %d: the publisher's message changed (trace %+v)", i, m.Trace)
		}
		if _, ok := m.Get("name"); !ok {
			t.Fatalf("round %d: quenching removed the attribute from the publisher's message", i)
		}
	}
	var handoffs uint64
	for _, s := range bus.ShardStats() {
		handoffs += s.HandoffsIn
	}
	if handoffs == 0 {
		t.Fatal("no delivery crossed shards through hand-off")
	}
}
