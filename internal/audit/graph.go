package audit

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeKind distinguishes the three node types of the paper's Fig. 11 audit
// graph, which follow the Open Provenance Model: data items (F), processes
// (P) and agents (A).
type NodeKind int

// Node kinds.
const (
	NodeData NodeKind = iota + 1
	NodeProcess
	NodeAgent
)

// String implements fmt.Stringer.
func (k NodeKind) String() string {
	switch k {
	case NodeData:
		return "data"
	case NodeProcess:
		return "process"
	case NodeAgent:
		return "agent"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// EdgeKind labels provenance relations.
type EdgeKind int

// Edge kinds (OPM/PROV-flavoured, as in Fig. 11).
const (
	EdgeGeneratedBy  EdgeKind = iota + 1 // data  -> process that produced it
	EdgeUsed                             // process -> data it consumed
	EdgeInformedBy                       // process -> process (information flow)
	EdgeControlledBy                     // process -> agent managing it
	EdgeDerivedFrom                      // data  -> data it was derived from
)

// String implements fmt.Stringer.
func (k EdgeKind) String() string {
	switch k {
	case EdgeGeneratedBy:
		return "wasGeneratedBy"
	case EdgeUsed:
		return "used"
	case EdgeInformedBy:
		return "wasInformedBy"
	case EdgeControlledBy:
		return "wasControlledBy"
	case EdgeDerivedFrom:
		return "wasDerivedFrom"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// A Node is a provenance graph vertex.
type Node struct {
	ID   string
	Kind NodeKind
	// Attrs carries free-form metadata (labels at creation time, owner...).
	Attrs map[string]string
}

// An Edge is a directed provenance relation from Src to Dst.
type Edge struct {
	Src, Dst string
	Kind     EdgeKind
}

// ErrUnknownNode is returned by queries over absent nodes.
var ErrUnknownNode = errors.New("audit: unknown node")

// A Graph is a provenance graph. The zero value is ready to use.
//
// Nodes are interned: each node ID maps to a slot, and a slot's adjacency
// is a list of packed words (far slot << 8 | edge kind). The lists hold no
// pointers, so the garbage collector never scans them however large the
// history grows. Edges form a set: adding an edge that is already present
// changes nothing, so re-deriving the same flow is free. An edge with a
// data endpoint is found by scanning that data node's own list (a datum
// has fan-out degree); only edges between two process or agent nodes,
// whose degree grows with the history, are kept in a hash set.
//
// Reachability queries (Ancestry, Descendants, and everything built on
// them) are memoized: the first query for a node walks the graph, repeated
// queries return the memoized set in time proportional to the answer, not
// to the history. The memo is epoch-stamped — every edge added or node
// removed advances the graph epoch, and a memo from an older epoch is
// discarded wholesale on the next query — so audit workloads that build
// once (or append in bursts) and then query repeatedly never pay the walk
// twice for the same topology.
type Graph struct {
	mu sync.RWMutex
	// index maps a node ID to its slot; free lists slots RemoveNodes
	// cleared, for reuse.
	index map[string]uint32
	slots []slot
	free  []uint32
	// edges holds exactly the edges whose endpoints are both non-data
	// nodes; nedges counts every edge.
	edges  map[edgeKey]struct{}
	nedges int
	// epoch advances whenever the edge set changes; reachability memos are
	// only valid while their stamped epoch matches.
	epoch uint64
	// anc and desc memoize Ancestry and Descendants results per node.
	anc  reachMemo
	desc reachMemo
}

// A slot is one interned node. out holds a word per edge leaving it, in a
// word per edge entering it, each in insertion order.
type slot struct {
	id    string
	kind  NodeKind
	attrs map[string]string
	out   []uint64
	in    []uint64
}

// edgeKey identifies an edge by its endpoint slots and kind.
type edgeKey struct {
	src, dst uint32
	kind     uint8
}

// maxEdgeKind is the largest kind an adjacency word can carry.
const maxEdgeKind = 0xff

// pack encodes the far endpoint and kind of an edge as an adjacency word.
func pack(far uint32, k uint8) uint64 { return uint64(far)<<8 | uint64(k) }

// unpack decodes an adjacency word.
func unpack(w uint64) (far uint32, k uint8) { return uint32(w >> 8), uint8(w) }

// A reachMemo holds reachability sets computed at one graph epoch.
type reachMemo struct {
	epoch uint64
	sets  map[string][]string
}

// lookup returns the memoized set for id, if still valid at epoch.
func (m *reachMemo) lookup(epoch uint64, id string) ([]string, bool) {
	if m.epoch != epoch || m.sets == nil {
		return nil, false
	}
	s, ok := m.sets[id]
	return s, ok
}

// store records a computed set, discarding any stale-epoch memo first.
func (m *reachMemo) store(epoch uint64, id string, set []string) {
	if m.epoch != epoch || m.sets == nil {
		m.epoch = epoch
		m.sets = make(map[string][]string)
	}
	m.sets[id] = set
}

// internLocked returns id's slot, creating a node of the given kind (with
// no attributes) when id is absent; created reports which. The caller
// holds g.mu.
func (g *Graph) internLocked(id string, kind NodeKind) (s uint32, created bool) {
	if s, ok := g.index[id]; ok {
		return s, false
	}
	if g.index == nil {
		g.index = make(map[string]uint32)
		g.edges = make(map[edgeKey]struct{})
	}
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
		g.slots[s] = slot{id: id, kind: kind}
	} else {
		s = uint32(len(g.slots))
		g.slots = append(g.slots, slot{id: id, kind: kind})
	}
	g.index[id] = s
	return s, true
}

// AddNode inserts or updates a node.
func (g *Graph) AddNode(n Node) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, _ := g.internLocked(n.ID, n.Kind)
	sl := &g.slots[s]
	wasData := sl.kind == NodeData
	sl.kind, sl.attrs = n.Kind, n.Attrs
	if wasData != (n.Kind == NodeData) {
		g.rekeyLocked(s)
	}
}

// rekeyLocked brings the edge set in line with slot s's kind after it
// turned from data into non-data or back: s's edges to non-data nodes
// (itself included) enter the set, or leave it. The caller holds g.mu.
func (g *Graph) rekeyLocked(s uint32) {
	keyed := g.slots[s].kind != NodeData
	set := func(key edgeKey) {
		if keyed {
			g.edges[key] = struct{}{}
		} else {
			delete(g.edges, key)
		}
	}
	for _, w := range g.slots[s].out {
		if far, k := unpack(w); far == s || g.slots[far].kind != NodeData {
			set(edgeKey{s, far, k})
		}
	}
	for _, w := range g.slots[s].in {
		if far, k := unpack(w); far == s || g.slots[far].kind != NodeData {
			set(edgeKey{far, s, k})
		}
	}
}

// AddEdge inserts a directed edge; both endpoints must exist. The edges
// form a set: adding an edge already present is a no-op. A new edge
// advances the graph epoch, retiring every memoized reachability set.
func (g *Graph) AddEdge(e Edge) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	src, ok := g.index[e.Src]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, e.Src)
	}
	dst, ok := g.index[e.Dst]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, e.Dst)
	}
	if e.Kind < 0 || e.Kind > maxEdgeKind {
		return fmt.Errorf("audit: edge kind %d out of range", int(e.Kind))
	}
	g.addEdgeLocked(src, dst, uint8(e.Kind))
	return nil
}

// addEdgeLocked inserts the edge src -> dst unless it is already present:
// a data endpoint's list is scanned (the shorter one when both are data),
// any other edge is looked up in the set. The caller holds g.mu.
func (g *Graph) addEdgeLocked(src, dst uint32, k uint8) {
	s, d := &g.slots[src], &g.slots[dst]
	switch {
	case s.kind == NodeData && (d.kind != NodeData || len(s.out) <= len(d.in)):
		if slices.Contains(s.out, pack(dst, k)) {
			return
		}
	case d.kind == NodeData:
		if slices.Contains(d.in, pack(src, k)) {
			return
		}
	default:
		key := edgeKey{src, dst, k}
		if _, dup := g.edges[key]; dup {
			return
		}
		g.edges[key] = struct{}{}
	}
	s.out = append(s.out, pack(dst, k))
	d.in = append(d.in, pack(src, k))
	g.nedges++
	g.epoch++
}

// unkeyLocked removes the edge src -> dst from the set if the set holds
// it. The caller holds g.mu.
func (g *Graph) unkeyLocked(src, dst uint32, k uint8) {
	if g.slots[src].kind != NodeData && g.slots[dst].kind != NodeData {
		delete(g.edges, edgeKey{src, dst, k})
	}
}

// RemoveNodes deletes the given nodes and every edge touching them — the
// provenance half of erasure: an erased datum must not remain queryable
// from live state (tombstoned records no longer back it, and the graph
// must agree). Removal advances the epoch, retiring memoized reachability
// sets. Returns the number of nodes removed.
func (g *Graph) RemoveNodes(ids map[string]bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	dead := make(map[uint32]bool, len(ids))
	for id := range ids {
		if s, ok := g.index[id]; ok {
			dead[s] = true
		}
	}
	if len(dead) == 0 {
		return 0
	}
	// Drop the dead nodes' edges from the set and the count, and filter
	// each surviving neighbour's word lists once, however many dead nodes
	// it touched. An edge whose source is dead is dropped through that
	// source's out list, so an in word from a dead source (a self-loop, or
	// an edge between two dead nodes) is not dropped twice.
	touched := map[uint32]bool{}
	for s := range dead {
		for _, w := range g.slots[s].out {
			far, k := unpack(w)
			g.unkeyLocked(s, far, k)
			g.nedges--
			touched[far] = true
		}
		for _, w := range g.slots[s].in {
			far, k := unpack(w)
			if !dead[far] {
				g.unkeyLocked(far, s, k)
				g.nedges--
			}
			touched[far] = true
		}
	}
	live := func(words []uint64) []uint64 {
		kept := words[:0]
		for _, w := range words {
			if far, _ := unpack(w); !dead[far] {
				kept = append(kept, w)
			}
		}
		return kept
	}
	for s := range touched {
		if !dead[s] {
			g.slots[s].out = live(g.slots[s].out)
			g.slots[s].in = live(g.slots[s].in)
		}
	}
	for s := range dead {
		delete(g.index, g.slots[s].id)
		g.slots[s] = slot{}
		g.free = append(g.free, s)
	}
	g.epoch++
	return len(dead)
}

// Node returns the node with the given ID.
func (g *Graph) Node(id string) (Node, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	s, ok := g.index[id]
	if !ok {
		return Node{}, false
	}
	sl := &g.slots[s]
	return Node{ID: sl.id, Kind: sl.kind, Attrs: sl.attrs}, true
}

// Len returns the node and edge counts.
func (g *Graph) Len() (nodes, edges int) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.index), g.nedges
}

// Ancestry returns every node reachable from id along outgoing edges — for
// a data item: the processes that generated it, the data they used, and so
// on back to the sources. This answers "how was this file generated?". The
// first query for a node walks the history; repeats are served from the
// epoch-stamped memo until the edge set next changes.
func (g *Graph) Ancestry(id string) ([]string, error) {
	return g.reach(id, &g.anc, true)
}

// Descendants returns every node that transitively depends on id (walks
// incoming edges). This answers "where did this sensor's data end up?" —
// the taint/impact query behind Concern 5. Memoized like Ancestry.
func (g *Graph) Descendants(id string) ([]string, error) {
	return g.reach(id, &g.desc, false)
}

// reach serves one reachability query through the given memo, computing and
// memoizing the set on a miss. Callers receive a fresh copy, so memoized
// sets are never aliased by callers.
func (g *Graph) reach(id string, memo *reachMemo, outgoing bool) ([]string, error) {
	g.mu.RLock()
	if _, ok := g.index[id]; !ok {
		g.mu.RUnlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	if set, hit := memo.lookup(g.epoch, id); hit {
		g.mu.RUnlock()
		return append([]string(nil), set...), nil
	}
	g.mu.RUnlock()

	g.mu.Lock()
	defer g.mu.Unlock()
	// The node may have been removed while we upgraded the lock; walking
	// from a vanished node would memoize an empty answer for it.
	s, ok := g.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	// Another goroutine may have filled the memo while we upgraded the lock.
	if set, hit := memo.lookup(g.epoch, id); hit {
		return append([]string(nil), set...), nil
	}
	set := g.walkLocked(s, outgoing)
	memo.store(g.epoch, id, set)
	return append([]string(nil), set...), nil
}

// walkLocked BFSes from slot s (excluding s itself) over out- or in-edges
// and returns the reached node IDs, sorted. The caller holds g.mu.
func (g *Graph) walkLocked(s uint32, outgoing bool) []string {
	seen := make([]uint64, (len(g.slots)+63)/64)
	seen[s/64] |= 1 << (s % 64)
	queue := []uint32{s}
	for i := 0; i < len(queue); i++ {
		adj := g.slots[queue[i]].out
		if !outgoing {
			adj = g.slots[queue[i]].in
		}
		for _, w := range adj {
			far, _ := unpack(w)
			if seen[far/64]&(1<<(far%64)) != 0 {
				continue
			}
			seen[far/64] |= 1 << (far % 64)
			queue = append(queue, far)
		}
	}
	out := make([]string, len(queue)-1)
	for i, n := range queue[1:] {
		out[i] = g.slots[n].id
	}
	sort.Strings(out)
	return out
}

// Agents returns the agents controlling any process in id's ancestry — the
// "who is responsible?" query for apportioning liability.
func (g *Graph) Agents(id string) ([]string, error) {
	anc, err := g.Ancestry(id)
	if err != nil {
		return nil, err
	}
	anc = append(anc, id)
	var out []string
	seen := make(map[string]struct{})
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, n := range anc {
		if s, ok := g.index[n]; ok && g.slots[s].kind == NodeAgent {
			if _, dup := seen[n]; !dup {
				seen[n] = struct{}{}
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}
