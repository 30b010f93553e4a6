package audit

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lciot/internal/ifc"
)

// graphModel is the reference the Graph is checked against: nodes by ID,
// edges as a plain set per source, and the surviving edges in insertion
// order (the order MarshalJSON lists a node's edges in).
type graphModel struct {
	nodes map[string]Node
	edges map[string]map[Edge]bool
	order []Edge
}

func newGraphModel() *graphModel {
	return &graphModel{nodes: map[string]Node{}, edges: map[string]map[Edge]bool{}}
}

func (m *graphModel) addNode(n Node) { m.nodes[n.ID] = n }

// ensure creates a node only when absent, as Append does.
func (m *graphModel) ensure(id string, kind NodeKind, attrs map[string]string) {
	if _, ok := m.nodes[id]; !ok {
		m.nodes[id] = Node{ID: id, Kind: kind, Attrs: attrs}
	}
}

// addEdge reports whether both endpoints exist; a present edge is kept once.
func (m *graphModel) addEdge(e Edge) bool {
	if _, ok := m.nodes[e.Src]; !ok {
		return false
	}
	if _, ok := m.nodes[e.Dst]; !ok {
		return false
	}
	if m.edges[e.Src] == nil {
		m.edges[e.Src] = map[Edge]bool{}
	}
	if !m.edges[e.Src][e] {
		m.edges[e.Src][e] = true
		m.order = append(m.order, e)
	}
	return true
}

// appendRecords restates BuildGraph's derivation rules over the model.
func (m *graphModel) appendRecords(recs []Record) {
	for _, r := range recs {
		if r.Kind != FlowAllowed && r.Kind != GateCrossing {
			continue
		}
		src, dst := string(r.Src), string(r.Dst)
		if src == "" || dst == "" {
			continue
		}
		m.ensure(src, NodeProcess, map[string]string{"ctx": r.SrcCtx.String()})
		m.ensure(dst, NodeProcess, map[string]string{"ctx": r.DstCtx.String()})
		m.addEdge(Edge{Src: dst, Dst: src, Kind: EdgeInformedBy})
		if r.DataID != "" {
			m.ensure(r.DataID, NodeData, nil)
			m.addEdge(Edge{Src: src, Dst: r.DataID, Kind: EdgeUsed})
			m.addEdge(Edge{Src: r.DataID, Dst: dst, Kind: EdgeGeneratedBy})
		}
		if r.Agent != "" {
			m.ensure(string(r.Agent), NodeAgent, nil)
			m.addEdge(Edge{Src: src, Dst: string(r.Agent), Kind: EdgeControlledBy})
		}
	}
}

func (m *graphModel) removeNodes(ids map[string]bool) int {
	n := 0
	for id := range ids {
		if _, ok := m.nodes[id]; ok {
			delete(m.nodes, id)
			n++
		}
	}
	kept := m.order[:0]
	for _, e := range m.order {
		if _, ok := m.nodes[e.Src]; !ok {
			delete(m.edges[e.Src], e)
			continue
		}
		if _, ok := m.nodes[e.Dst]; !ok {
			delete(m.edges[e.Src], e)
			continue
		}
		kept = append(kept, e)
	}
	m.order = kept
	return n
}

func (m *graphModel) edgeCount() int {
	n := 0
	for _, es := range m.edges {
		n += len(es)
	}
	return n
}

// reach is a plain BFS over the model's edges.
func (m *graphModel) reach(id string, outgoing bool) []string {
	seen := map[string]bool{id: true}
	frontier := []string{id}
	var out []string
	for len(frontier) > 0 {
		var next []string
		for _, n := range frontier {
			for _, e := range m.order {
				from, to := e.Src, e.Dst
				if !outgoing {
					from, to = e.Dst, e.Src
				}
				if from != n || seen[to] {
					continue
				}
				seen[to] = true
				out = append(out, to)
				next = append(next, to)
			}
		}
		frontier = next
	}
	sort.Strings(out)
	return out
}

// fresh builds a new Graph holding exactly the model's nodes and edges.
func (m *graphModel) fresh(t *testing.T) *Graph {
	t.Helper()
	g := &Graph{}
	for _, n := range m.nodes {
		g.AddNode(n)
	}
	for _, e := range m.order {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// Node universe of runGraphOps: few enough IDs that process pairs,
// DataIDs and agents repeat often.
var (
	modelProcs  = []string{"p0", "p1", "p2", "p3"}
	modelData   = []string{"d0", "d1", "d2", "d3", "d4", "p1"} // "p1" collides with a process
	modelAgents = []string{"a0", "a1"}
	modelIDs    = []string{"p0", "p1", "p2", "p3", "d0", "d1", "d2", "d3", "d4", "a0", "a1", "zz"}
	modelCtxs   = []ifc.SecurityContext{
		{},
		ifc.MustContext([]ifc.Tag{"medical"}, nil),
		ifc.MustContext([]ifc.Tag{"medical", "ann"}, []ifc.Tag{"hospital"}),
	}
)

// runGraphOps drives random AddNode, AddEdge, Append and RemoveNodes calls
// against both a Graph and the model, checking every answer after each
// call. pick returns a choice in [0, n), or false when the input is spent.
func runGraphOps(t *testing.T, pick func(n int) (int, bool), maxOps int) {
	g, m := &Graph{}, newGraphModel()
	one := func(list []string) string {
		i, _ := pick(len(list))
		return list[i]
	}
	maybe := func(list []string) string { // "" one time in four
		if i, _ := pick(4); i == 0 {
			return ""
		}
		return one(list)
	}
	for op := 0; op < maxOps; op++ {
		c, ok := pick(4)
		if !ok {
			return
		}
		switch c {
		case 0:
			k, _ := pick(3)
			n := Node{ID: one(modelIDs), Kind: NodeKind(k + 1)}
			if a, _ := pick(2); a == 0 {
				n.Attrs = map[string]string{"owner": one(modelAgents)}
			}
			g.AddNode(n)
			m.addNode(n)
		case 1:
			k, _ := pick(5)
			e := Edge{Src: one(modelIDs), Dst: one(modelIDs), Kind: EdgeKind(k + 1)}
			err := g.AddEdge(e)
			if ok := m.addEdge(e); ok != (err == nil) || (err != nil && !errors.Is(err, ErrUnknownNode)) {
				t.Fatalf("op %d: AddEdge(%v) = %v, model says endpoints present = %v", op, e, err, ok)
			}
		case 2:
			n, _ := pick(4)
			recs := make([]Record, n+1)
			for i := range recs {
				kinds := []EventKind{FlowAllowed, FlowAllowed, GateCrossing, FlowDenied}
				k, _ := pick(len(kinds))
				sc, _ := pick(len(modelCtxs))
				dc, _ := pick(len(modelCtxs))
				recs[i] = Record{
					Kind: kinds[k], Src: ifc.EntityID(maybe(modelProcs)), Dst: ifc.EntityID(maybe(modelProcs)),
					DataID: maybe(modelData), Agent: ifc.PrincipalID(maybe(modelAgents)),
					SrcCtx: modelCtxs[sc], DstCtx: modelCtxs[dc],
				}
			}
			g.Append(recs)
			m.appendRecords(recs)
			checkGraph(t, op, g, m)
			// Re-deriving the same records changes nothing, not even the
			// epoch that retires the reachability memo.
			epoch, dot, js := g.epoch, g.DOT(), mustJSON(t, g)
			g.Append(recs)
			if g.epoch != epoch || g.DOT() != dot || !bytes.Equal(mustJSON(t, g), js) {
				t.Fatalf("op %d: appending the same records twice changed the graph", op)
			}
		case 3:
			n, _ := pick(3)
			ids := map[string]bool{}
			for i := 0; i <= n; i++ {
				ids[one(modelIDs)] = true
			}
			if got, want := g.RemoveNodes(ids), m.removeNodes(ids); got != want {
				t.Fatalf("op %d: RemoveNodes(%v) = %d, model %d", op, ids, got, want)
			}
		}
		checkGraph(t, op, g, m)
	}
}

// checkGraph compares every answer the Graph gives with the model's.
func checkGraph(t *testing.T, op int, g *Graph, m *graphModel) {
	t.Helper()
	if n, e := g.Len(); n != len(m.nodes) || e != m.edgeCount() {
		t.Fatalf("op %d: Len = %d, %d; model %d, %d", op, n, e, len(m.nodes), m.edgeCount())
	}
	checkEdgeWords(t, g)
	for _, id := range modelIDs {
		got, ok := g.Node(id)
		want, wok := m.nodes[id]
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: Node(%s) = %v, %v; model %v, %v", op, id, got, ok, want, wok)
		}
		for _, outgoing := range []bool{true, false} {
			query := g.Descendants
			if outgoing {
				query = g.Ancestry
			}
			got, err := query(id)
			if !wok {
				if !errors.Is(err, ErrUnknownNode) {
					t.Fatalf("op %d: query(%s, out=%v) on an absent node = %v, %v", op, id, outgoing, got, err)
				}
				continue
			}
			if want := m.reach(id, outgoing); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: query(%s, out=%v) = %v, %v; model %v", op, id, outgoing, got, err, want)
			}
		}
	}
	fresh := m.fresh(t)
	if got, want := g.DOT(), fresh.DOT(); got != want {
		t.Fatalf("op %d: DOT differs from a fresh build:\n%s\nwant:\n%s", op, got, want)
	}
	if got, want := mustJSON(t, g), mustJSON(t, fresh); !bytes.Equal(got, want) {
		t.Fatalf("op %d: JSON differs from a fresh build:\n%s\nwant:\n%s", op, got, want)
	}
}

func mustJSON(t *testing.T, g *Graph) []byte {
	t.Helper()
	b, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGraphMatchesModel is the differential test of the graph's
// representation: random mutation sequences, every answer checked against
// the model after every call.
func TestGraphMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		runGraphOps(t, func(n int) (int, bool) { return r.Intn(n), true }, 150)
	}
}

// FuzzGraphOps drives the same differential check from fuzzer bytes, one
// byte per choice.
func FuzzGraphOps(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 1, 1, 1, 1, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0})
	f.Add([]byte{0, 4, 1, 1, 0, 1, 4, 0, 2, 3, 3, 2, 0, 2, 2, 5, 1, 2, 3, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		runGraphOps(t, func(n int) (int, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return int(b) % n, true
		}, 150)
	})
}

// TestGraphLenAcrossKindFlipsAndRemovals pins the edge count, and every
// other answer, where an edge moves between the edge set and the data
// nodes' lists: a node turning from data into a process or back (with the
// edge re-added, and a removed slot reused), two adjacent data nodes
// removed together, and a data self-loop.
func TestGraphLenAcrossKindFlipsAndRemovals(t *testing.T) {
	type op func(g *Graph, m *graphModel)
	node := func(id string, k NodeKind) op {
		return func(g *Graph, m *graphModel) {
			g.AddNode(Node{ID: id, Kind: k})
			m.addNode(Node{ID: id, Kind: k})
		}
	}
	edge := func(src, dst string) op {
		return func(g *Graph, m *graphModel) {
			e := Edge{Src: src, Dst: dst, Kind: EdgeDerivedFrom}
			if err := g.AddEdge(e); err != nil {
				t.Fatal(err)
			}
			m.addEdge(e)
		}
	}
	remove := func(ids ...string) op {
		return func(g *Graph, m *graphModel) {
			set := map[string]bool{}
			for _, id := range ids {
				set[id] = true
			}
			if got, want := g.RemoveNodes(set), m.removeNodes(set); got != want {
				t.Fatalf("RemoveNodes(%v) = %d, model %d", ids, got, want)
			}
		}
	}
	for _, c := range []struct {
		name string
		ops  []op
	}{
		{"data to process, edge re-added", []op{
			node("p0", NodeProcess), node("d0", NodeData), edge("p0", "d0"), edge("d0", "p0"),
			node("d0", NodeProcess), edge("p0", "d0"), edge("d0", "p0"),
		}},
		{"process to data, slot reused", []op{
			node("p0", NodeProcess), node("p1", NodeAgent), edge("p0", "p1"), edge("p1", "p0"),
			node("p1", NodeData), edge("p0", "p1"), remove("p1"),
			node("d0", NodeProcess), edge("p0", "d0"), edge("d0", "p0"),
		}},
		{"two adjacent data nodes removed", []op{
			node("p0", NodeProcess), node("d0", NodeData), node("d1", NodeData),
			edge("d0", "d1"), edge("d1", "d0"), edge("p0", "d0"), edge("d1", "p0"),
			remove("d0", "d1"),
		}},
		{"data self-loop", []op{
			node("d0", NodeData), edge("d0", "d0"), edge("d0", "d0"),
			node("d0", NodeProcess), edge("d0", "d0"),
			node("d0", NodeData), edge("d0", "d0"), remove("d0"),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, m := &Graph{}, newGraphModel()
			for i, o := range c.ops {
				o(g, m)
				checkGraph(t, i, g, m)
			}
		})
	}
}

// TestAddEdgeRejectsUnpackableKind: an edge kind that does not fit an
// adjacency word is refused, and the graph is left as it was.
func TestAddEdgeRejectsUnpackableKind(t *testing.T) {
	g := fig11Graph(t)
	for _, k := range []EdgeKind{-1, maxEdgeKind + 1} {
		if err := g.AddEdge(Edge{Src: "F1", Dst: "F2", Kind: k}); err == nil {
			t.Fatalf("AddEdge(kind %d) accepted", k)
		}
	}
	if n, e := g.Len(); n != 8 || e != 8 {
		t.Fatalf("Len after refused edges = %d, %d", n, e)
	}
}
