package sbus

import (
	"sync"
	"sync/atomic"

	"lciot/internal/fault"
	"lciot/internal/lanehash"
	"lciot/internal/msg"
)

// fpHandoff is the chaos seam for the handoff rings: an armed program
// forces the overflow path — the delivery is refused as if the ring were
// full, so the publisher falls back to inline execution. Drills use it to
// provoke the relaxed ordering semantics overload produces without having
// to actually fill a 4096-slot ring.
var fpHandoff = fault.New("sbus.shard.handoff")

// handoffRingSize bounds each shard's cross-shard delivery ring. While the
// ring has free slots, handoffs preserve per-source FIFO order; when it is
// full the publisher delivers inline instead (see publish), trading
// ordering for liveness under overload: the inline message can overtake
// older messages for the same channel still queued on the ring, and the
// sink's handler can run on the publisher's goroutine concurrently with
// the shard's dispatcher. Sink handlers on a multi-shard bus must
// tolerate both (see the package documentation's ordering semantics).
const handoffRingSize = 4096

// maxShards bounds the shard count a bus can be built with. The cap is a
// sanity limit, not a tuning recommendation: useful shard counts track the
// host's core count (see the README scaling guide).
const maxShards = 1024

// A handoff is one cross-shard delivery parked on the destination shard's
// ring, carrying everything deliverLocal needs.
type handoff struct {
	ch *channel
	m  *msg.Message
}

// A shard owns a horizontal slice of the bus: the components whose names
// hash to it, every channel whose *source* component lives here, and the
// byComp re-evaluation index entries for its own components (including
// entries for channels owned by other shards whose sink lives here). Each
// shard has its own copy-on-write routing snapshot, its own write lock,
// and — on multi-shard buses — its own dispatch goroutine draining the
// handoff ring. Reconfiguration on one shard therefore never serialises
// publishes or re-evaluations on another.
type shard struct {
	idx int

	// mu serialises this shard's routing mutations; routing holds the
	// shard's immutable snapshot, read lock-free by the message path.
	mu      sync.Mutex
	routing atomic.Pointer[routing]

	// ring receives cross-shard deliveries destined for this shard's
	// components; drained by the shard's dispatch goroutine.
	ring chan handoff

	// enqMu fences ring enqueues against Close. Publishers hold the read
	// side across the closed-flag check and the enqueue; Close sets the
	// flag and then takes the write side once as a barrier, after which no
	// new handoff can reach the ring — everything the ring holds was
	// accepted before the barrier and is drained by the dispatcher's
	// shutdown pass.
	enqMu sync.RWMutex

	// Stats, all monotonic.
	delivered  atomic.Uint64 // successful deliveries to sinks on this shard
	handoffsIn atomic.Uint64 // cross-shard deliveries accepted onto the ring
	overflow   atomic.Uint64 // handoffs delivered inline because the ring was full
	reevals    atomic.Uint64 // context re-evaluations of this shard's components
}

// dispatch drains the shard's handoff ring until the bus closes, then
// drains whatever is already queued and exits. It is the only reader of
// the ring, so ring order — per-source publish order while the ring has
// capacity — is delivery order.
func (sh *shard) dispatch(b *Bus) {
	for {
		select {
		case h := <-sh.ring:
			b.deliverLocal(h.ch, h.m)
		case <-b.quit:
			for {
				select {
				case h := <-sh.ring:
					b.deliverLocal(h.ch, h.m)
				default:
					return
				}
			}
		}
	}
}

// tryHandoff attempts to park a cross-shard delivery on the shard's ring,
// reporting whether the shard's dispatcher now owns it. It refuses — and
// the caller must deliver inline — when the bus is closed (no dispatcher
// will drain the ring again) or the ring is full. The read lock pairs
// with the write-side barrier in Close: an enqueue that wins the race
// against Close lands on the ring before the barrier completes, so the
// dispatcher's shutdown drain still delivers it; an enqueue that loses
// observes the closed flag and falls back.
func (sh *shard) tryHandoff(b *Bus, h handoff) bool {
	if act := fpHandoff.Check(); act != nil {
		act.Wait()
		sh.overflow.Add(1)
		return false // forced overflow: caller delivers inline
	}
	sh.enqMu.RLock()
	defer sh.enqMu.RUnlock()
	if b.closed.Load() {
		return false
	}
	select {
	case sh.ring <- h:
		sh.handoffsIn.Add(1)
		return true
	default:
		sh.overflow.Add(1)
		return false
	}
}

// shardIdxFor maps a component name to a shard by the shared FNV-1a
// placement hash (internal/lanehash — the same function the CEP and
// policy dispatch lanes use, so a component's deliveries, detections and
// rule dispatch stay on one lane index). The mapping is pure: a
// component's shard is a function of its name and the bus's shard count
// only, so callers can predict placement (shard affinity) and tests can
// construct names that land on chosen shards.
func shardIdxFor(name string, n int) int {
	return lanehash.Index(name, n)
}

// shardIdx returns the index of the shard owning the named component.
func (b *Bus) shardIdx(component string) int {
	return shardIdxFor(component, len(b.shards))
}

// shardFor returns the shard owning the named component.
func (b *Bus) shardFor(component string) *shard {
	return b.shards[b.shardIdx(component)]
}

// NumShards returns the bus's shard count (>= 1).
func (b *Bus) NumShards() int { return len(b.shards) }

// HealthTotals sums delivered and overflow counts across shards without
// allocating (the health fingerprint path polls it every few seconds;
// ShardStats allocates a snapshot and is for tooling).
func (b *Bus) HealthTotals() (delivered, overflow uint64) {
	for _, sh := range b.shards {
		delivered += sh.delivered.Load()
		overflow += sh.overflow.Load()
	}
	return delivered, overflow
}

// ShardOf reports which shard the named component maps to. The mapping is
// stable for the life of the bus, whether or not the component is
// registered yet.
func (b *Bus) ShardOf(component string) int { return b.shardIdx(component) }

// ShardStats is a point-in-time view of one shard, for operators and
// tests watching how load spreads across the bus.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Components and Channels count what the shard currently owns.
	Components int
	Channels   int
	// Delivered counts successful deliveries to sinks homed on this shard
	// (whether executed inline, by the shard's dispatcher or at link
	// ingress).
	Delivered uint64
	// HandoffsIn counts cross-shard deliveries accepted onto the ring.
	HandoffsIn uint64
	// Overflow counts handoffs delivered inline on the publisher's
	// goroutine because the ring was full.
	Overflow uint64
	// Reevaluations counts context re-evaluations of this shard's
	// components.
	Reevaluations uint64
}

// ShardStats snapshots every shard. Each shard's routing counts are
// individually consistent; the slice as a whole is not a cross-shard
// atomic snapshot.
func (b *Bus) ShardStats() []ShardStats {
	out := make([]ShardStats, len(b.shards))
	for i, sh := range b.shards {
		r := sh.routing.Load()
		out[i] = ShardStats{
			Shard:         i,
			Components:    r.components.len(),
			Channels:      r.channels.len(),
			Delivered:     sh.delivered.Load(),
			HandoffsIn:    sh.handoffsIn.Load(),
			Overflow:      sh.overflow.Load(),
			Reevaluations: sh.reevals.Load(),
		}
	}
	return out
}

// Close stops the shard dispatchers after draining deliveries already
// accepted onto the rings. Close is idempotent and only affects
// cross-shard dispatch: the bus remains usable, with cross-shard
// deliveries falling back to inline execution on the publisher's
// goroutine (publishers observe the closed flag and never enqueue onto
// an undrained ring). Links are shut down separately (Unlink/removeLink).
func (b *Bus) Close() {
	b.closeOnce.Do(func() {
		b.closed.Store(true)
		// Barrier: wait out every in-flight tryHandoff. Once every write
		// lock is held, every publisher sees the closed flag before
		// touching a ring, so the rings only hold handoffs accepted before
		// this point — all of which the dispatchers' shutdown drain below
		// delivers.
		for _, sh := range b.shards {
			sh.enqMu.Lock()
		}
		close(b.quit)
		for _, sh := range b.shards {
			sh.enqMu.Unlock()
		}
	})
}

// mutate locks every shard in idxs (any order, duplicates allowed) in
// ascending index order, starts the next version of each one's snapshot
// (see routing.clone), applies fn to those versions, and publishes them
// all if fn reports a change. A version copies only the buckets fn writes,
// so a mutation costs what it touches, not the size of the shard. Every
// routing mutation goes through here, and the one lock order keeps
// concurrent mutations over overlapping shard sets deadlock-free.
func (b *Bus) mutate(idxs []int, fn func(rs map[int]*routing) bool) bool {
	touched := make([]bool, len(b.shards))
	for _, i := range idxs {
		touched[i] = true
	}
	rs := make(map[int]*routing, 2)
	for i, t := range touched {
		if t {
			b.shards[i].mu.Lock()
			defer b.shards[i].mu.Unlock()
			rs[i] = b.shards[i].routing.Load().clone()
		}
	}
	if !fn(rs) {
		return false
	}
	for i, r := range rs {
		b.shards[i].routing.Store(r)
	}
	return true
}

// channelShards returns the shard indexes a channel key touches: the
// source component's home shard (which owns the channel) and, for local
// sinks, the destination component's home shard (which indexes it for
// re-evaluation). For remote sinks j == i.
func (b *Bus) channelShards(key channelKey) (i, j int) {
	srcName, _, _ := splitEndpointAddr(key.src)
	i = b.shardIdx(srcName)
	j = i
	if remote, rest := splitRemoteAddr(key.dst); remote == "" {
		dstName, _, _ := splitEndpointAddr(rest)
		j = b.shardIdx(dstName)
	}
	return i, j
}

// A routeEdit is one channel change for applyRoutes. With ch set it
// installs ch, replacing any channel routed under the same key; otherwise
// it removes the channel routed under key — and, when expect is set, only
// if that is still expect.
type routeEdit struct {
	key    channelKey
	ch     *channel
	expect *channel
}

// applyRoutes applies edits in order inside one critical section over
// every shard they touch (see mutate) and returns the channels its
// removal edits took out. Each channel lives in up to four indexes —
// the owning shard's channels and bySrc, and byComp on its source's and
// local sink's home shards — and a channel's key fixes all of those
// shards, so an edit and the predecessor it replaces fall under the same
// locks: a concurrent edit of the same key lands wholly before or wholly
// after this call, and readers never see a channel in one index but not
// another.
func (b *Bus) applyRoutes(edits []routeEdit) (removed []*channel) {
	owner := make([]int, len(edits))
	idxs := make([]int, 0, 2*len(edits))
	for n := range edits {
		e := &edits[n]
		if e.ch != nil {
			e.key = e.ch.key
		}
		i, j := b.channelShards(e.key)
		if e.ch != nil {
			e.ch.srcShard, e.ch.dstShard = i, j
		}
		owner[n] = i
		idxs = append(idxs, i, j)
	}
	b.mutate(idxs, func(rs map[int]*routing) bool {
		changed := false
		for n, e := range edits {
			old, _ := rs[owner[n]].channels.get(e.key)
			if e.ch == nil && (old == nil || e.expect != nil && old != e.expect) {
				continue
			}
			if old != nil {
				index(rs, old, false)
				if e.ch == nil {
					removed = append(removed, old)
				}
			}
			if e.ch != nil {
				index(rs, e.ch, true)
			}
			changed = true
		}
		return changed
	})
	return removed
}

// index adds ch to (add) or removes it from every index it belongs in,
// across the snapshot versions rs one applyRoutes call holds.
func index(rs map[int]*routing, ch *channel, add bool) {
	src := rs[ch.srcShard]
	if add {
		src.channels.set(ch.key, ch)
	} else {
		src.channels.delete(ch.key)
	}
	src.edit(&src.bySrc, ch.key.src, ch, add)
	src.edit(&src.byComp, ch.srcComp.Name(), ch, add)
	if ch.dstComp != nil && ch.dstComp != ch.srcComp {
		dst := rs[ch.dstShard]
		dst.edit(&dst.byComp, ch.dstComp.Name(), ch, add)
	}
}

// edit appends ch to, or filters it out of, the list idx (r's bySrc or
// byComp) holds under name. A list an earlier version made is still shared
// with the published snapshot that lock-free readers hold, so edit copies
// it first and stamps the copy with r's version; a list stamped with r's
// version is private until publication, so later edits in the same call
// grow or filter it in place — n channels added to one entry in a batch
// cost one copy, not n.
func (r *routing) edit(idx *cowMap[string, chanList], name string, ch *channel, add bool) {
	b := idx.writable(name)
	l := b[name]
	if l.ver != r.ver {
		l = chanList{chs: append(make([]*channel, 0, len(l.chs)+1), l.chs...), ver: r.ver}
	}
	if add {
		l.chs = append(l.chs, ch)
		b[name] = l
		return
	}
	kept := l.chs[:0]
	for _, c := range l.chs {
		if c != ch {
			kept = append(kept, c)
		}
	}
	clear(l.chs[len(kept):])
	if len(kept) == 0 {
		delete(b, name)
	} else {
		l.chs = kept
		b[name] = l
	}
}

// ownedChannels collects every channel from every shard's snapshot. Each
// shard's contribution is individually consistent; the slice as a whole
// is not a cross-shard atomic snapshot (callers — link replay, listings —
// tolerate that).
func (b *Bus) ownedChannels() []*channel {
	var out []*channel
	for _, sh := range b.shards {
		sh.routing.Load().channels.each(func(_ channelKey, ch *channel) {
			out = append(out, ch)
		})
	}
	return out
}

// channelByKey looks a channel up in its owning shard (internal; tests).
func (b *Bus) channelByKey(key channelKey) *channel {
	srcName, _, _ := splitEndpointAddr(key.src)
	ch, _ := b.shardFor(srcName).routing.Load().channels.get(key)
	return ch
}
