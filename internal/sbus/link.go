package sbus

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lciot/internal/audit"
	"lciot/internal/fault"
	"lciot/internal/ifc"
	"lciot/internal/msg"
	"lciot/internal/telemetry"
	"lciot/internal/transport"
)

// fpLinkSend is the chaos seam in the link writer, checked once per
// coalesced batch before the transport send. A delay stalls the writer
// (frames pile onto the bounded queue and exert backpressure); an error
// simulates the connection dying mid-send (the batch is retained and
// retransmitted after reconnect); Drop discards the batch outright — the
// silent mid-batch frame loss at-least-once delivery must tolerate.
var fpLinkSend = fault.New("sbus.link.send")

// This file implements cross-bus links: the Fig. 9 architecture where each
// machine's messaging substrate enforces IFC in its dealings with the
// substrates of other machines. The sender's bus validates egress at
// connection time; the receiver's bus re-validates ingress on every
// message against its *own* current view of the destination — neither side
// trusts the other's enforcement blindly.
//
// Links speak the binary link protocol (see wire.go for the frame
// encoding) with machine-to-machine resilience:
//
//   - One writer goroutine per link drains a bounded send queue and
//     coalesces bursts into batched transport frames (pipelining: a
//     publisher never waits for a network round trip, and a burst costs
//     one syscall, not one per message).
//   - The bounded queue applies backpressure: when the peer cannot drain
//     fast enough, enqueueing blocks up to LinkConfig.SendTimeout and then
//     fails with ErrBackpressure instead of buffering without bound.
//   - Outbound (dialed) links are self-healing: when the connection dies
//     the supervisor redials with exponential backoff and, on success,
//     resumes the session — replaying the connect handshake for every
//     egress channel routed to the peer *before* any queued traffic, so
//     the receiving bus re-validates ingress exactly as it did originally.
//     ErrLinkDown is only reported once the retry budget is exhausted.
//
// Delivery across a reconnect is at-least-once: a batch whose send failed
// mid-flight is retransmitted on the next connection, so a frame that did
// reach the peer before the failure can be delivered twice. The receiving
// bus enforces (and audits) each copy independently.

// ErrLinkDown is returned when a cross-bus operation has no live link and
// no prospect of one: the peer was never linked, the retry budget is
// exhausted, or the link was replaced or closed.
var ErrLinkDown = errors.New("sbus: link down")

// ErrBackpressure is returned when a link's bounded send queue stays full
// for longer than LinkConfig.SendTimeout — the peer (or the network) is
// not draining egress fast enough.
var ErrBackpressure = errors.New("sbus: link send queue full")

// ErrResidency is returned when link egress would move
// residency-constrained data to a peer bus outside the data's allowed
// jurisdictions (or to one that declared none). Denials are audited like
// any other flow denial.
var ErrResidency = errors.New("sbus: residency violation")

// connectTimeout bounds cross-bus connect handshakes.
const connectTimeout = 10 * time.Second

// maxBatchBytes caps the payload bytes coalesced into one transport frame
// so a batch normally stays far below transport.MaxFrameSize.
const maxBatchBytes = 1 << 20

// maxEgressFrame is the largest single encoded frame a link accepts:
// anything bigger could never cross the transport, so it is rejected at
// enqueue time instead of poisoning a coalesced batch at send time.
const maxEgressFrame = transport.MaxFrameSize - batchHeaderLen

// LinkConfig tunes link behaviour for a bus. The zero value selects the
// defaults; set it with Bus.SetLinkConfig before establishing links.
type LinkConfig struct {
	// QueueLen bounds the per-link egress queue, in frames (default 1024).
	QueueLen int
	// SendTimeout is how long an egress operation may wait for queue space
	// before failing with ErrBackpressure (default 2s).
	SendTimeout time.Duration
	// MaxBatch caps the frames coalesced into one transport frame
	// (default 64).
	MaxBatch int
	// RetryBudget is the number of consecutive failed reconnect attempts
	// after which an outbound link gives up and reports ErrLinkDown
	// (default 8).
	RetryBudget int
	// BackoffBase and BackoffMax shape the exponential reconnect backoff
	// (defaults 50ms and 5s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// withDefaults fills zero fields with the default tuning.
func (c LinkConfig) withDefaults() LinkConfig {
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	if c.SendTimeout <= 0 {
		c.SendTimeout = 2 * time.Second
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 8
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	return c
}

// SetLinkConfig installs the link tuning used by links established from
// now on; existing links keep the configuration they were created with.
func (b *Bus) SetLinkConfig(cfg LinkConfig) {
	c := cfg.withDefaults()
	b.linkCfg.Store(&c)
}

// linkConfig returns the bus's current link tuning.
func (b *Bus) linkConfig() LinkConfig {
	if c := b.linkCfg.Load(); c != nil {
		return *c
	}
	return LinkConfig{}.withDefaults()
}

// LinkState is the lifecycle state of a link.
type LinkState int

const (
	// LinkUp: a live connection is attached.
	LinkUp LinkState = iota
	// LinkReconnecting: the connection died and the supervisor is redialing.
	LinkReconnecting
	// LinkClosed: the link was replaced, closed, or gave up reconnecting.
	LinkClosed
)

// String renders the state for status displays.
func (s LinkState) String() string {
	switch s {
	case LinkUp:
		return "up"
	case LinkReconnecting:
		return "reconnecting"
	case LinkClosed:
		return "closed"
	}
	return fmt.Sprintf("LinkState(%d)", int(s))
}

// LinkStatus is a point-in-time snapshot of one link, for operators
// (lciotd logs it) and tests.
type LinkStatus struct {
	// Peer is the remote bus name.
	Peer string
	// Addr is the dial address for outbound links, the remote address of
	// the accepted connection otherwise.
	Addr string
	// Dialer reports whether this side dialed the link (and therefore owns
	// reconnection); accepted links heal when the peer redials.
	Dialer bool
	// State is the current lifecycle state.
	State LinkState
	// QueueDepth and QueueCap describe the egress queue; QueueHighWater
	// is the deepest the queue has ever been on this link — sustained
	// values near QueueCap forewarn of ErrBackpressure.
	QueueDepth     int
	QueueCap       int
	QueueHighWater uint64
	// Reconnects counts successful session resumptions.
	Reconnects uint64
	// PeerJurisdiction is the jurisdiction set the peer declared in its
	// hello (empty = undeclared: residency-constrained egress is denied).
	PeerJurisdiction ifc.Label
}

// A link is a connection to a peer bus. For outbound links the identity is
// stable across reconnects: the conn changes underneath while the send
// queue, pending requests and routing entry survive, so traffic buffered
// during an outage flows once the session resumes.
type link struct {
	bus  *Bus
	peer string
	cfg  LinkConfig

	// network/addr are the dialer's reconnect coordinates; network is nil
	// for accepted (inbound) links, which cannot redial — the peer does.
	network transport.Network
	addr    string

	// sendQ carries encoded frames (no batch header) to the writer.
	sendQ chan []byte
	// done is closed on shutdown to release enqueuers and the writer.
	done chan struct{}

	mu   sync.Mutex
	cond *sync.Cond
	// conn is the live connection, nil while reconnecting.
	conn   transport.Conn
	state  LinkState
	closed bool
	nextID uint64
	// peerJur is the jurisdiction set the peer declared in its hello,
	// refreshed on every (re)connect; the egress residency gate reads it.
	peerJur ifc.Label
	// pending maps request IDs to reply channels; closed (not replied) when
	// the link shuts down so callers fail fast instead of timing out.
	pending map[uint64]chan LinkFrame
	// ingress records remotely-established channels into this bus:
	// key = {remote src full addr, local dst}.
	ingress    map[channelKey]struct{}
	reconnects uint64

	// highWater tracks the deepest the send queue has been — the overload
	// indicator operators watch (LinkStatus.QueueHighWater): a depth that
	// keeps touching QueueCap means egress is about to hit backpressure.
	highWater atomic.Uint64

	// txBytes/rxBytes/batchFrames are the link's telemetry instruments
	// (bytes on and off the wire, frames per coalesced batch); stageHop is
	// the per-peer link_egress→ingress stage edge, observed at ingress
	// from the trailer's egress timestamp.
	txBytes     *telemetry.Counter
	rxBytes     *telemetry.Counter
	batchFrames *telemetry.Histogram
	stageHop    *telemetry.Histogram
}

// noteDepth folds the current queue depth into the high-water mark; called
// after each successful enqueue.
func (l *link) noteDepth() {
	d := uint64(len(l.sendQ))
	for {
		hw := l.highWater.Load()
		if d <= hw || l.highWater.CompareAndSwap(hw, d) {
			return
		}
	}
}

// newLink builds a link shell (no connection attached yet).
func (b *Bus) newLink(peer string, network transport.Network, addr string) *link {
	cfg := b.linkConfig()
	l := &link{
		bus:     b,
		peer:    peer,
		cfg:     cfg,
		network: network,
		addr:    addr,
		sendQ:   make(chan []byte, cfg.QueueLen),
		done:    make(chan struct{}),
		state:   LinkReconnecting,
		pending: make(map[uint64]chan LinkFrame),
		ingress: make(map[channelKey]struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	reg := telemetry.Default()
	l.txBytes = reg.Counter("sbus_link_tx_bytes_total", "bus", b.name, "peer", peer)
	l.rxBytes = reg.Counter("sbus_link_rx_bytes_total", "bus", b.name, "peer", peer)
	l.batchFrames = reg.Histogram("sbus_link_batch_frames", "bus", b.name, "peer", peer)
	l.stageHop = reg.Histogram("stage_link_hop_ns", "bus", b.name, "peer", peer)
	// Queue depth, high water and reconnects are state the link keeps
	// anyway: registered func-backed, they cost the data path nothing. A
	// replacement link to the same peer re-registers the series and takes
	// them over.
	reg.GaugeFunc("sbus_link_queue_depth", func() float64 { return float64(len(l.sendQ)) },
		"bus", b.name, "peer", peer)
	reg.GaugeFunc("sbus_link_queue_cap", func() float64 { return float64(cap(l.sendQ)) },
		"bus", b.name, "peer", peer)
	reg.GaugeFunc("sbus_link_queue_highwater", func() float64 { return float64(l.highWater.Load()) },
		"bus", b.name, "peer", peer)
	reg.CounterFunc("sbus_link_reconnects_total", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.reconnects)
	}, "bus", b.name, "peer", peer)
	return l
}

// dialHello dials a peer and performs the hello exchange, returning the
// live connection, the peer's bus name and its declared jurisdiction.
func dialHello(b *Bus, network transport.Network, addr string) (transport.Conn, string, ifc.Label, error) {
	conn, err := network.Dial(addr)
	if err != nil {
		return nil, "", ifc.EmptyLabel, err
	}
	hello := LinkFrame{Kind: "hello", Bus: b.name, SrcJurisdiction: b.Jurisdiction()}
	buf, err := encodeSingle(&hello)
	if err != nil {
		conn.Close()
		return nil, "", ifc.EmptyLabel, err
	}
	if err := conn.Send(buf); err != nil {
		conn.Close()
		return nil, "", ifc.EmptyLabel, err
	}
	raw, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, "", ifc.EmptyLabel, err
	}
	frames, err := DecodeBatch(raw)
	if err != nil {
		conn.Close()
		return nil, "", ifc.EmptyLabel, fmt.Errorf("sbus: hello from %s: %w", addr, err)
	}
	if len(frames) != 1 || frames[0].Kind != "hello" || frames[0].Bus == "" {
		conn.Close()
		return nil, "", ifc.EmptyLabel, fmt.Errorf("%w: bad hello from %s", ErrProtocol, addr)
	}
	return conn, frames[0].Bus, frames[0].SrcJurisdiction, nil
}

// LinkTo dials a peer bus, performs the hello exchange and starts the
// link's writer and supervisor. It returns the peer's bus name. Any egress
// channels already routed to that peer (from an earlier link) are replayed
// so the session resumes where it left off.
func (b *Bus) LinkTo(network transport.Network, addr string) (string, error) {
	conn, peer, peerJur, err := dialHello(b, network, addr)
	if err != nil {
		return "", err
	}
	l := b.newLink(peer, network, addr)
	l.peerJur = peerJur
	// Replay any surviving egress channels *before* addLink makes the
	// link routable: once publishers can reach the queue, their message
	// frames must never get ahead of the connect handshakes.
	l.replayEgress(conn)
	l.setConn(conn)
	b.addLink(l)
	go l.writeLoop()
	go l.supervise(conn)
	return peer, nil
}

// ServeLink handles one inbound link connection (blocking until the hello
// completes; the read loop then runs in the background). A peer speaking
// any other protocol version — including legacy v1 JSON — is rejected
// with ErrProtocol.
func (b *Bus) ServeLink(conn transport.Conn) error {
	raw, err := conn.Recv()
	if err != nil {
		conn.Close()
		return err
	}
	frames, err := DecodeBatch(raw)
	if err != nil {
		conn.Close()
		return fmt.Errorf("sbus: link handshake: %w", err)
	}
	if len(frames) != 1 || frames[0].Kind != "hello" || frames[0].Bus == "" {
		conn.Close()
		return fmt.Errorf("%w: handshake did not open with hello", ErrProtocol)
	}
	reply := LinkFrame{Kind: "hello", Bus: b.name, SrcJurisdiction: b.Jurisdiction()}
	buf, err := encodeSingle(&reply)
	if err != nil {
		conn.Close()
		return err
	}
	if err := conn.Send(buf); err != nil {
		conn.Close()
		return err
	}
	l := b.newLink(frames[0].Bus, nil, conn.RemoteAddr())
	l.peerJur = frames[0].SrcJurisdiction
	// As in LinkTo: re-establish this bus's own egress channels over the
	// fresh inbound link before it becomes routable.
	l.replayEgress(conn)
	l.setConn(conn)
	b.addLink(l)
	go l.writeLoop()
	go l.supervise(conn)
	return nil
}

// Serve accepts link connections until the listener closes. Handshake
// failures (version mismatches, malformed hellos) are audited; they never
// stop the accept loop.
func (b *Bus) Serve(listener transport.Listener) {
	for {
		conn, err := listener.Accept()
		if err != nil {
			return
		}
		go func() {
			if err := b.ServeLink(conn); err != nil {
				b.log.AppendAsync(audit.Record{
					Kind: audit.FlowDenied, Layer: audit.LayerMessaging, Domain: b.name,
					Note: "link handshake rejected: " + err.Error(),
				})
			}
		}()
	}
}

// addLink publishes a link, replacing any prior link to the same peer. The
// replaced link is shut down: its pending requests fail immediately with
// ErrLinkDown rather than waiting out their timeouts.
func (b *Bus) addLink(l *link) {
	b.linkMu.Lock()
	cur := *b.links.Load()
	old := cur[l.peer]
	next := make(map[string]*link, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[l.peer] = l
	b.links.Store(&next)
	b.linkMu.Unlock()
	if old != nil {
		old.shutdown()
	}
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Dst: ifc.EntityID(l.peer), Note: "link established to peer bus",
	})
}

// removeLink retires a dead link: it is dropped from routing (unless a
// replacement already took its slot) and shut down. Channels routed to the
// peer stay in the table — a later LinkTo resumes them.
func (b *Bus) removeLink(l *link, note string) {
	b.linkMu.Lock()
	cur := *b.links.Load()
	if live, ok := cur[l.peer]; ok && live == l {
		next := make(map[string]*link, len(cur))
		for k, v := range cur {
			if k != l.peer {
				next[k] = v
			}
		}
		b.links.Store(&next)
	}
	b.linkMu.Unlock()
	l.shutdown()
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Dst: ifc.EntityID(l.peer), Note: "link closed: " + note,
	})
}

// shutdown closes the link: the conn is torn down, enqueuers and the
// writer are released, and every pending request fails fast.
func (l *link) shutdown() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.state = LinkClosed
	conn := l.conn
	l.conn = nil
	for id, ch := range l.pending {
		close(ch)
		delete(l.pending, id)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	close(l.done)
	if conn != nil {
		conn.Close()
	}
}

// setConn attaches a live connection and wakes the writer.
func (l *link) setConn(conn transport.Conn) {
	l.mu.Lock()
	l.conn = conn
	l.state = LinkUp
	l.cond.Broadcast()
	l.mu.Unlock()
}

// noteConnDead detaches conn if it is still current and closes it, moving
// the link to reconnecting; idempotent across the writer and reader both
// observing the same failure.
func (l *link) noteConnDead(conn transport.Conn) {
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
		if !l.closed {
			l.state = LinkReconnecting
		}
	}
	l.mu.Unlock()
	conn.Close()
}

// current reports whether conn is still the link's live connection.
func (l *link) current(conn transport.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn == conn
}

// waitConn blocks until a live connection is attached, returning nil once
// the link is closed.
func (l *link) waitConn() transport.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.conn == nil && !l.closed {
		l.cond.Wait()
	}
	return l.conn
}

// status snapshots the link for LinkStatus.
func (l *link) status() LinkStatus {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LinkStatus{
		Peer:             l.peer,
		Addr:             l.addr,
		Dialer:           l.network != nil,
		State:            l.state,
		QueueDepth:       len(l.sendQ),
		QueueCap:         cap(l.sendQ),
		QueueHighWater:   l.highWater.Load(),
		Reconnects:       l.reconnects,
		PeerJurisdiction: l.peerJur,
	}
}

// peerJurisdiction reads the peer's declared jurisdiction.
func (l *link) peerJurisdiction() ifc.Label {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peerJur
}

// linkFor returns the link to a peer (which may be mid-reconnect: egress
// enqueued then flows when the session resumes).
func (b *Bus) linkFor(peer string) (*link, error) {
	l, ok := (*b.links.Load())[peer]
	if !ok {
		return nil, fmt.Errorf("%w: no link to bus %q", ErrLinkDown, peer)
	}
	return l, nil
}

// linkTo returns the live link to a peer, or nil (internal; tests).
func (b *Bus) linkTo(peer string) *link {
	return (*b.links.Load())[peer]
}

// Links lists connected peer bus names.
func (b *Bus) Links() []string {
	m := *b.links.Load()
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// LinkHealthFingerprint folds every link's peer name and state into one
// value that changes whenever link health changes. Unlike LinkStatus it
// never allocates, so health polls can consult it cheaply and rebuild the
// full status only when something actually moved.
func (b *Bus) LinkHealthFingerprint() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	// Per-link hashes are summed, not chained: map iteration order is
	// random, and the fingerprint must not depend on it.
	var h uint64
	for peer, l := range *b.links.Load() {
		ph := uint64(fnvOffset)
		for i := 0; i < len(peer); i++ {
			ph = (ph ^ uint64(peer[i])) * fnvPrime
		}
		l.mu.Lock()
		st := l.state
		l.mu.Unlock()
		ph = (ph ^ (uint64(st) + 1)) * fnvPrime
		h += ph
	}
	return h
}

// LinkStatus snapshots every link, sorted by peer name.
func (b *Bus) LinkStatus() []LinkStatus {
	m := *b.links.Load()
	out := make([]LinkStatus, 0, len(m))
	for _, l := range m {
		out = append(out, l.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer < out[j].Peer })
	return out
}

// --- egress ---

// enqueue hands one encoded frame to the writer, blocking up to
// SendTimeout for queue space (backpressure) before failing.
func (l *link) enqueue(frame []byte) error {
	if len(frame) > maxEgressFrame {
		return fmt.Errorf("%w: %d byte frame", transport.ErrFrameSize, len(frame))
	}
	select {
	case <-l.done:
		return fmt.Errorf("%w: to bus %q", ErrLinkDown, l.peer)
	default:
	}
	select {
	case l.sendQ <- frame:
		l.noteDepth()
		return nil
	default:
	}
	t := time.NewTimer(l.cfg.SendTimeout)
	defer t.Stop()
	select {
	case l.sendQ <- frame:
		l.noteDepth()
		return nil
	case <-l.done:
		return fmt.Errorf("%w: to bus %q", ErrLinkDown, l.peer)
	case <-t.C:
		return fmt.Errorf("%w: bus %q has not drained %d frames in %v",
			ErrBackpressure, l.peer, cap(l.sendQ), l.cfg.SendTimeout)
	}
}

// sendFrame encodes one frame and enqueues it.
func (l *link) sendFrame(f *LinkFrame) error {
	buf, err := AppendLinkFrame(nil, f)
	if err != nil {
		return err
	}
	return l.enqueue(buf)
}

// writeLoop is the link's single writer: it drains the queue, coalesces
// bursts into one batched transport frame, and retransmits a batch whose
// send failed once the supervisor attaches a fresh connection.
func (l *link) writeLoop() {
	var batch [][]byte
	// carry holds a frame taken off the queue that would overflow the
	// current batch; it opens the next one.
	var carry []byte
	var buf []byte
	for {
		// Wait for a live conn *before* draining the queue: while the link
		// is reconnecting, frames stay on the bounded queue where they
		// exert backpressure, instead of hiding in the writer's batch.
		conn := l.waitConn()
		if conn == nil {
			return // link closed
		}
		if len(batch) == 0 {
			if carry != nil {
				batch = append(batch, carry)
				carry = nil
			} else {
				select {
				case f := <-l.sendQ:
					batch = append(batch, f)
				case <-l.done:
					return
				}
				if !l.current(conn) {
					// conn died while the writer idled on the queue: hold
					// this frame for the next conn and leave the rest
					// queued, as if the writer had been waiting there.
					continue
				}
			}
			size := len(batch[0])
		coalesce:
			for len(batch) < l.cfg.MaxBatch && size < maxBatchBytes {
				select {
				case f := <-l.sendQ:
					// Enqueue bounds each frame to maxEgressFrame, so any
					// single frame fits in a batch of one; a frame that
					// would push this batch past the transport limit waits
					// in carry and opens the next one.
					if size+len(f) > maxEgressFrame {
						carry = f
						break coalesce
					}
					batch = append(batch, f)
					size += len(f)
				default:
					break coalesce
				}
			}
		}
		if act := fpLinkSend.Check(); act != nil {
			act.Wait() // stall: queued frames back up and exert backpressure
			if act.Drop {
				// Mid-batch frame drop: the coalesced batch vanishes without
				// ever reaching the transport.
				batch = batch[:0]
				continue
			}
			if act.Err != nil {
				// Injected connection death: keep the batch and let the
				// supervisor redial, exercising the retransmit path.
				l.noteConnDead(conn)
				continue
			}
		}
		buf = AppendBatchHeader(buf[:0], len(batch))
		for _, f := range batch {
			buf = append(buf, f...)
		}
		if err := conn.Send(buf); err != nil {
			// The conn died mid-send: keep the batch for retransmission on
			// the next connection and kick the supervisor via the closed
			// conn (its Recv fails immediately).
			l.noteConnDead(conn)
			continue
		}
		l.txBytes.Add(uint64(len(buf)))
		l.batchFrames.Observe(int64(len(batch)))
		batch = batch[:0]
	}
}

// --- reconnect & resume ---

// supervise owns the link's connection lifecycle: it runs the read loop
// until the conn dies, then — for outbound links — redials with backoff
// and resumes the session. Inbound links are retired on failure; the peer
// owns redialing.
func (l *link) supervise(conn transport.Conn) {
	for {
		l.readLoop(conn)
		l.mu.Lock()
		closed := l.closed
		l.mu.Unlock()
		if closed {
			return
		}
		if l.network == nil {
			l.bus.removeLink(l, "peer connection lost")
			return
		}
		l.bus.log.AppendAsync(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: l.bus.name,
			Dst: ifc.EntityID(l.peer), Note: "link lost, reconnecting",
		})
		next, attempts, err := l.redial()
		if next == nil {
			detail := "link retry budget exhausted"
			if err != nil {
				detail += ": " + err.Error()
			}
			l.bus.removeLink(l, detail)
			return
		}
		l.mu.Lock()
		l.reconnects++
		nth := l.reconnects
		l.mu.Unlock()
		replayed := l.replayEgress(next)
		l.setConn(next)
		l.bus.log.AppendAsync(audit.Record{
			Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: l.bus.name,
			Dst: ifc.EntityID(l.peer),
			Note: fmt.Sprintf("link resumed after %d attempts (reconnect #%d), %d channels replayed",
				attempts, nth, replayed),
		})
		conn = next
	}
}

// redial attempts to re-establish the connection with exponential backoff,
// up to the retry budget.
func (l *link) redial() (transport.Conn, int, error) {
	backoff := l.cfg.BackoffBase
	var lastErr error
	for attempt := 1; attempt <= l.cfg.RetryBudget; attempt++ {
		select {
		case <-l.done:
			return nil, attempt - 1, nil
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > l.cfg.BackoffMax {
			backoff = l.cfg.BackoffMax
		}
		conn, peer, peerJur, err := dialHello(l.bus, l.network, l.addr)
		if err != nil {
			lastErr = err
			continue
		}
		if peer != l.peer {
			conn.Close()
			lastErr = fmt.Errorf("address %q now answers as bus %q, expected %q", l.addr, peer, l.peer)
			continue
		}
		l.mu.Lock()
		l.peerJur = peerJur // the peer may have redeclared (e.g. migrated)
		l.mu.Unlock()
		return conn, attempt, nil
	}
	return nil, l.cfg.RetryBudget, lastErr
}

// replayEgress re-establishes every egress channel routed to this peer by
// replaying its connect handshake, so the remote bus re-runs its ingress
// validation (admission, schema, IFC) against current state. The frames
// are written directly to conn before the writer is released (and before
// a fresh link is even routable), so traffic queued during an outage —
// or published concurrently — can never arrive ahead of the channels it
// needs. Channels the peer now refuses are torn down and audited.
// Returns the number of channels replayed.
func (l *link) replayEgress(conn transport.Conn) int {
	b := l.bus
	type waiter struct {
		key channelKey
		ch  chan LinkFrame
	}
	var frames []LinkFrame
	var waiters []waiter
	var ids []uint64
	for _, ch := range b.ownedChannels() {
		if ch.remoteBus != l.peer {
			continue
		}
		ctx := ch.srcComp.Context()
		f := LinkFrame{
			Kind:            "connect",
			Src:             b.name + ":" + ch.key.src,
			Dst:             ch.remoteDst,
			SrcSecrecy:      ctx.Secrecy,
			SrcIntegrity:    ctx.Integrity,
			SrcJurisdiction: ctx.Jurisdiction,
			SrcPurpose:      ctx.Purpose,
			Schema:          ch.srcEP.Schema.Name,
			Agent:           ch.agent,
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return 0
		}
		l.nextID++
		f.ID = l.nextID
		rc := make(chan LinkFrame, 1)
		l.pending[f.ID] = rc
		l.mu.Unlock()
		frames = append(frames, f)
		waiters = append(waiters, waiter{key: ch.key, ch: rc})
		ids = append(ids, f.ID)
	}
	if len(frames) == 0 {
		return 0
	}
	// Chunk the handshakes into writer-sized batches — a federation can
	// route more channels than one transport frame (or the u16 batch
	// count) holds. A send failure closes the conn so the supervisor's
	// read loop fails immediately and the next reconnect replays from
	// scratch — never a half-resumed session that looks up. Unencodable
	// connects (>64KiB field) are skipped; their waiters time out.
	count := 0
	var body []byte
	flush := func() bool {
		if count == 0 {
			return true
		}
		packed := AppendBatchHeader(nil, count)
		packed = append(packed, body...)
		if err := conn.Send(packed); err != nil {
			conn.Close()
			count, body = 0, body[:0]
			return false
		}
		l.txBytes.Add(uint64(len(packed)))
		count, body = 0, body[:0]
		return true
	}
	for i := range frames {
		next, err := AppendLinkFrame(body, &frames[i])
		if err != nil {
			continue
		}
		body = next
		count++
		if count >= l.cfg.MaxBatch || len(body) >= maxBatchBytes {
			if !flush() {
				break
			}
		}
	}
	flush()
	go func() {
		defer func() {
			l.mu.Lock()
			for _, id := range ids {
				delete(l.pending, id)
			}
			l.mu.Unlock()
		}()
		timeout := time.After(connectTimeout)
		for _, w := range waiters {
			select {
			case resp, ok := <-w.ch:
				if ok && !resp.OK {
					// The peer's current state refuses this channel: keeping
					// it routed would silently drop every message.
					if removed := b.applyRoutes([]routeEdit{{key: w.key}}); len(removed) > 0 {
						srcID, dstID := removed[0].auditIDs()
						b.log.AppendAsync(audit.Record{
							Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
							Src: srcID, Dst: dstID,
							Note: "cross-bus channel torn down: resume refused: " + resp.Err,
						})
					}
				}
			case <-timeout:
				return
			case <-l.done:
				return
			}
		}
	}()
	return len(frames)
}

// checkEgressResidency is the residency gate on link egress: data whose
// context constrains jurisdiction may only leave for a peer bus that
// declared itself inside the allowed set in its federation hello. The
// denial is audited like an ordinary flow denial — "data never leaves an
// allowed region" is precisely the evidence a regulator asks for.
func (b *Bus) checkEgressResidency(l *link, src ifc.EntityID, ctx ifc.SecurityContext,
	agent ifc.PrincipalID, dataID string) error {
	if ctx.Jurisdiction.IsEmpty() {
		return nil
	}
	peerJur := l.peerJurisdiction()
	if !peerJur.IsEmpty() && peerJur.Subset(ctx.Jurisdiction) {
		return nil
	}
	declared := peerJur.String()
	if peerJur.IsEmpty() {
		declared = "none"
	}
	b.auditDenied(src, ifc.EntityID(l.peer), ctx, ifc.SecurityContext{Jurisdiction: peerJur},
		agent, dataID, fmt.Sprintf("egress denied: residency restricted to %s, peer bus %q declares %s",
			ctx.Jurisdiction, l.peer, declared))
	return fmt.Errorf("%w: data restricted to %s, peer bus %q declares %s",
		ErrResidency, ctx.Jurisdiction, l.peer, declared)
}

// connectRemote establishes a channel whose sink lives on a peer bus. The
// remote bus performs the authoritative ingress checks and replies; the
// local bus enforces residency before the request even leaves.
// ch is the policed, not yet installed, channel police built for it.
func (b *Bus) connectRemote(by ifc.PrincipalID, ch *channel) error {
	l, err := b.linkFor(ch.remoteBus)
	if err != nil {
		return err
	}
	ctx := ch.srcComp.Context()
	if err := b.checkEgressResidency(l, ch.srcComp.entity.ID(), ctx, by, ""); err != nil {
		return err
	}
	resp, err := l.request(LinkFrame{
		Kind:            "connect",
		Src:             b.name + ":" + ch.key.src,
		Dst:             ch.remoteDst,
		SrcSecrecy:      ctx.Secrecy,
		SrcIntegrity:    ctx.Integrity,
		SrcJurisdiction: ctx.Jurisdiction,
		SrcPurpose:      ctx.Purpose,
		Schema:          ch.srcEP.Schema.Name,
		Agent:           by,
	})
	if err != nil {
		return err
	}
	if !resp.OK {
		return fmt.Errorf("sbus: remote bus %q refused connect: %s", ch.remoteBus, resp.Err)
	}
	b.applyRoutes([]routeEdit{{ch: ch}})
	srcID, dstID := ch.auditIDs()
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: srcID, Dst: dstID,
		SrcCtx: ctx, Agent: by, Note: "cross-bus channel established",
	})
	return nil
}

// sendRemote ships one message down a cross-bus channel. The sender stamps
// the message with the source's *current* security context; the receiver
// enforces against it. The frame — header fields and the message's binary
// payload — is encoded in one pass into a single buffer that the writer
// goroutine takes ownership of.
func (b *Bus) sendRemote(srcComp *Component, srcEP EndpointSpec, remoteBus, remoteDst string, m *msg.Message) error {
	l, err := b.linkFor(remoteBus)
	if err != nil {
		return err
	}
	ctx := srcComp.Context()
	// Residency gate: constrained data never leaves an allowed region,
	// checked per message because the source's context (and the peer's
	// declaration, across reconnects) may have changed since connect.
	if err := b.checkEgressResidency(l, srcComp.entity.ID(), ctx, srcComp.principal, m.DataID); err != nil {
		return err
	}
	f := LinkFrame{
		Kind:            "message",
		Src:             b.name + ":" + srcComp.Name() + "." + srcEP.Name,
		Dst:             remoteDst,
		SrcSecrecy:      ctx.Secrecy,
		SrcIntegrity:    ctx.Integrity,
		SrcJurisdiction: ctx.Jurisdiction,
		SrcPurpose:      ctx.Purpose,
		Schema:          srcEP.Schema.Name,
		Agent:           srcComp.principal,
		Trace:           m.Trace,
	}
	if m.Trace.Clock != nil {
		// Sampled flow: stamp link egress so the receiver can observe the
		// link-hop edge and resume the stage clock.
		f.EgressNs = uint64(time.Now().UnixNano())
	}
	buf, err := appendMessageFrame(nil, &f, m)
	if err != nil {
		return err
	}
	if err := l.enqueue(buf); err != nil {
		return err
	}
	if !m.Trace.IsZero() { // guard: skip the dst formatting for untraced flows
		telemetry.RecordSpan(m.Trace, b.name, "egress", f.Src, remoteBus+":"+remoteDst, "")
	}
	// With the stage clock, so a sampled flow closes its audit edge here too.
	b.log.AppendAsyncOn(srcComp.shard, audit.Record{
		Kind: audit.FlowAllowed, Layer: audit.LayerMessaging, Domain: b.name,
		Src: srcComp.entity.ID(), Dst: ifc.EntityID(remoteBus + ":" + remoteDst),
		SrcCtx: ctx, DataID: m.DataID, Agent: srcComp.principal,
		Note: "egress to peer bus", TraceID: m.Trace.ID.String(),
	}, m.Trace.Clock)
	return nil
}

// request performs a round trip over the link. It fails fast — not by
// timeout — when the link shuts down while the reply is pending.
func (l *link) request(f LinkFrame) (LinkFrame, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return LinkFrame{}, fmt.Errorf("%w: to bus %q", ErrLinkDown, l.peer)
	}
	l.nextID++
	f.ID = l.nextID
	ch := make(chan LinkFrame, 1)
	l.pending[f.ID] = ch
	l.mu.Unlock()

	defer func() {
		l.mu.Lock()
		delete(l.pending, f.ID)
		l.mu.Unlock()
	}()

	if err := l.sendFrame(&f); err != nil {
		return LinkFrame{}, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return LinkFrame{}, fmt.Errorf("%w: link to bus %q closed awaiting reply", ErrLinkDown, l.peer)
		}
		return resp, nil
	case <-time.After(connectTimeout):
		return LinkFrame{}, fmt.Errorf("%w: request timed out", ErrLinkDown)
	}
}

// readLoop dispatches inbound frames until the connection dies.
func (l *link) readLoop(conn transport.Conn) {
	for {
		raw, err := conn.Recv()
		if err != nil {
			l.noteConnDead(conn)
			return
		}
		l.rxBytes.Add(uint64(len(raw)))
		frames, err := DecodeBatch(raw)
		if err != nil {
			// Mid-session garbage: drop the conn; the supervisor (or the
			// peer) re-establishes a clean session.
			l.noteConnDead(conn)
			return
		}
		for i := range frames {
			l.dispatch(conn, &frames[i])
		}
	}
}

// dispatch handles one inbound frame read from conn.
func (l *link) dispatch(conn transport.Conn, f *LinkFrame) {
	switch f.Kind {
	case "result":
		l.mu.Lock()
		if ch, ok := l.pending[f.ID]; ok {
			select {
			case ch <- *f:
			default:
			}
		}
		l.mu.Unlock()
	case "connect":
		resp := LinkFrame{Kind: "result", ID: f.ID, OK: true}
		if err := l.acceptIngress(*f); err != nil {
			resp.OK = false
			resp.Err = err.Error()
		}
		// Reply directly on the conn the request arrived on (transports
		// serialise concurrent Sends): control-plane replies must not
		// contend with — or be dropped by — the backpressured data queue,
		// where a full queue would stall this read loop and strand the
		// peer's request until its timeout.
		if buf, err := encodeSingle(&resp); err == nil {
			if err := conn.Send(buf); err != nil {
				l.noteConnDead(conn)
			}
		}
	case "message":
		l.deliverIngress(*f)
	}
}

// acceptIngress validates a remote connect request against the local sink:
// schema compatibility and IFC from the advertised remote context into the
// local component's context.
func (l *link) acceptIngress(f LinkFrame) error {
	b := l.bus
	dstComp, dstEP, err := b.resolveLocal(f.Dst, Sink)
	if err != nil {
		return err
	}
	if dstComp.Quarantined() {
		return fmt.Errorf("%w: %q", ErrQuarantined, dstComp.Name())
	}
	if dstEP.Schema.Name != f.Schema {
		return fmt.Errorf("%w: remote emits %q, local accepts %q", ErrSchema, f.Schema, dstEP.Schema.Name)
	}
	srcCtx := ifc.SecurityContext{
		Secrecy: f.SrcSecrecy, Integrity: f.SrcIntegrity,
		Jurisdiction: f.SrcJurisdiction, Purpose: f.SrcPurpose,
	}
	if err := b.admit(srcCtx); err != nil {
		b.auditDenied(ifc.EntityID(f.Src), dstComp.entity.ID(), srcCtx, dstComp.Context(),
			f.Agent, "", "ingress connect refused by admission policy: "+err.Error())
		return err
	}
	if err := ifc.EnforceFlow(srcCtx, dstComp.Context()); err != nil {
		b.auditDenied(ifc.EntityID(f.Src), dstComp.entity.ID(), srcCtx, dstComp.Context(),
			f.Agent, "", "ingress connect denied by IFC: "+err.Error())
		return err
	}
	l.mu.Lock()
	l.ingress[channelKey{src: f.Src, dst: f.Dst}] = struct{}{}
	l.mu.Unlock()
	b.log.AppendAsync(audit.Record{
		Kind: audit.Reconfiguration, Layer: audit.LayerMessaging, Domain: b.name,
		Src: ifc.EntityID(f.Src), Dst: dstComp.entity.ID(),
		SrcCtx: srcCtx, DstCtx: dstComp.Context(), Agent: f.Agent,
		Note: "cross-bus ingress accepted",
	})
	return nil
}

// deliverIngress runs the link's own gates on one inbound message, cheap
// ones before decode, then the bus's delivery pipeline, which re-checks it
// against the sink's own view (Fig. 9) as it does a local delivery.
func (l *link) deliverIngress(f LinkFrame) {
	b := l.bus
	l.mu.Lock()
	_, established := l.ingress[channelKey{src: f.Src, dst: f.Dst}]
	l.mu.Unlock()

	// A traced frame continues its trace here, one hop deeper: the hop
	// counter increments at link ingress, so a two-link relay path reads
	// 0/1/2 across the three buses.
	var tc telemetry.TraceContext
	if !f.Trace.IsZero() {
		tc = telemetry.TraceContext{ID: f.Trace.ID, Hop: f.Trace.Hop + 1}
	}
	srcCtx := ifc.SecurityContext{
		Secrecy: f.SrcSecrecy, Integrity: f.SrcIntegrity,
		Jurisdiction: f.SrcJurisdiction, Purpose: f.SrcPurpose,
	}

	// The peer chose Dst: one naming no local sink is audited, not dropped.
	dstComp, dstEP, err := b.resolveLocal(f.Dst, Sink)
	if err != nil {
		b.auditDeniedTrace(tc, ifc.EntityID(f.Src), ifc.EntityID(f.Dst), srcCtx, ifc.SecurityContext{},
			f.Agent, "", "ingress denied: no such sink: "+f.Dst)
		return
	}
	deny := func(note string) {
		b.auditDeniedTrace(tc, ifc.EntityID(f.Src), dstComp.entity.ID(), srcCtx, dstComp.Context(),
			f.Agent, "", note)
	}
	if !established {
		deny("ingress denied: no established channel")
		return
	}
	// The sender's context may have changed since the connect; re-admit it.
	if err := b.admit(srcCtx); err != nil {
		deny("ingress refused by admission policy: " + err.Error())
		return
	}
	m, err := msg.DecodeBinary(f.Payload)
	if err != nil {
		deny("ingress denied: undecodable payload")
		return
	}
	m.Trace = tc
	if f.EgressNs != 0 {
		// Sampled frame: observe the link-hop edge (sender egress to local
		// ingress — wall clocks, so cross-host skew shifts it) and resume
		// the stage clock so downstream edges attribute locally.
		now := time.Now().UnixNano()
		l.stageHop.Observe(now - int64(f.EgressNs))
		m.Trace.Clock = telemetry.ResumeStageClock(now)
	}
	if !tc.IsZero() {
		telemetry.RecordSpan(tc, b.name, "ingress", f.Src, string(dstComp.entity.ID()), "")
	}
	// Enforced against the sink's own schema, not the peer's copy of it.
	b.deliver(&delivery{
		src: ifc.EntityID(f.Src), srcCtx: srcCtx, agent: f.Agent, srcAddr: f.Src,
		dst: dstComp, dstEP: dstEP, schema: dstEP.Schema, path: "ingress",
	}, m)
}
