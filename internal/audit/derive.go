package audit

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"lciot/internal/ifc"
)

// BuildGraph derives a provenance graph from flow records, the paper's
// observation that "the logs generated during IFC enforcement are a natural
// source of provenance information". Each allowed flow with a DataID
// contributes: the datum (F node), the endpoint processes (P nodes), a
// used/generatedBy pair, and an informedBy edge between the processes.
// Agents attach via wasControlledBy when the record names one.
func BuildGraph(records []Record) *Graph {
	g := &Graph{}
	g.Append(records)
	return g
}

// Append ingests more flow records into an existing graph — the
// build-once/append-many path. Instead of rebuilding the whole graph when
// the audit log grows, callers derive it once with BuildGraph and Append
// each new batch; queries between batches are then served from the
// reachability memo, and only records appended since the last query force
// a recomputation. The whole batch is ingested under one lock acquisition.
func (g *Graph) Append(records []Record) {
	g.mu.Lock()
	defer g.mu.Unlock()
	// A process node's attributes are built only when the node is created.
	process := func(id string, ctx ifc.SecurityContext) uint32 {
		s, created := g.internLocked(id, NodeProcess)
		if created {
			g.slots[s].attrs = map[string]string{"ctx": ctx.String()}
		}
		return s
	}
	for i := range records {
		r := &records[i]
		if r.Kind != FlowAllowed && r.Kind != GateCrossing {
			continue
		}
		if r.Src == "" || r.Dst == "" {
			continue
		}
		src := process(string(r.Src), r.SrcCtx)
		dst := process(string(r.Dst), r.DstCtx)
		// Process-to-process information flow.
		g.addEdgeLocked(dst, src, uint8(EdgeInformedBy))
		if r.DataID != "" {
			data, _ := g.internLocked(r.DataID, NodeData)
			g.addEdgeLocked(src, data, uint8(EdgeUsed))
			g.addEdgeLocked(data, dst, uint8(EdgeGeneratedBy))
		}
		if r.Agent != "" {
			agent, _ := g.internLocked(string(r.Agent), NodeAgent)
			g.addEdgeLocked(src, agent, uint8(EdgeControlledBy))
		}
	}
}

// sortedSlotsLocked returns the live slots in node-ID order. The caller
// holds g.mu.
func (g *Graph) sortedSlotsLocked() []uint32 {
	ids := make([]string, 0, len(g.index))
	for id := range g.index {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	slots := make([]uint32, len(ids))
	for i, id := range ids {
		slots[i] = g.index[id]
	}
	return slots
}

// DOT renders the graph in Graphviz format, with the Fig. 11 conventions:
// data items as ellipses, processes as boxes, agents as diamonds.
func (g *Graph) DOT() string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	order := g.sortedSlotsLocked()

	var b strings.Builder
	b.WriteString("digraph provenance {\n")
	for _, s := range order {
		shape := "box"
		switch g.slots[s].kind {
		case NodeData:
			shape = "ellipse"
		case NodeAgent:
			shape = "diamond"
		}
		fmt.Fprintf(&b, "  %q [shape=%s];\n", g.slots[s].id, shape)
	}
	for _, s := range order {
		edges := append([]uint64(nil), g.slots[s].out...)
		sort.Slice(edges, func(i, j int) bool {
			fi, ki := unpack(edges[i])
			fj, kj := unpack(edges[j])
			if x, y := g.slots[fi].id, g.slots[fj].id; x != y {
				return x < y
			}
			return ki < kj
		})
		for _, w := range edges {
			far, k := unpack(w)
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", g.slots[s].id, g.slots[far].id, EdgeKind(k).String())
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// jsonGraph is the export schema.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID    string            `json:"id"`
	Kind  string            `json:"kind"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

type jsonEdge struct {
	Src  string `json:"src"`
	Dst  string `json:"dst"`
	Kind string `json:"kind"`
}

// MarshalJSON exports the graph for external tools (the paper used Neo4J
// and Cytoscape; any JSON-consuming tool works here).
func (g *Graph) MarshalJSON() ([]byte, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()

	out := jsonGraph{}
	for _, s := range g.sortedSlotsLocked() {
		sl := &g.slots[s]
		out.Nodes = append(out.Nodes, jsonNode{ID: sl.id, Kind: sl.kind.String(), Attrs: sl.attrs})
		for _, w := range sl.out {
			far, k := unpack(w)
			out.Edges = append(out.Edges, jsonEdge{Src: sl.id, Dst: g.slots[far].id, Kind: EdgeKind(k).String()})
		}
	}
	return json.Marshal(out)
}

// ComplianceReport summarises a log for a regulator: totals by kind, denial
// details, break-glass activations, and the erasure evidence (obligation
// actions and tombstones).
type ComplianceReport struct {
	Total       int            `json:"total"`
	ByKind      map[string]int `json:"by_kind"`
	Denials     []Record       `json:"denials,omitempty"`
	BreakGlass  []Record       `json:"break_glass,omitempty"`
	Obligations []Record       `json:"obligations,omitempty"`
	// Redacted counts chain-preserving tombstones in the log.
	Redacted    int   `json:"redacted"`
	ChainIntact bool  `json:"chain_intact"`
	FirstBadSeq int64 `json:"first_bad_seq"` // -1 when intact
}

// Report builds a compliance report over the log's retained records.
func Report(l *Log) ComplianceReport {
	rep := ComplianceReport{ByKind: make(map[string]int), FirstBadSeq: -1}
	for _, r := range l.Select(nil) {
		rep.Total++
		rep.ByKind[r.Kind.String()]++
		if r.Redacted {
			rep.Redacted++
		}
		switch r.Kind {
		case FlowDenied:
			rep.Denials = append(rep.Denials, r)
		case BreakGlass:
			rep.BreakGlass = append(rep.BreakGlass, r)
		case ObligationScheduled, ObligationExecuted, ObligationRefused, Redaction:
			rep.Obligations = append(rep.Obligations, r)
		}
	}
	bad, err := l.Verify()
	rep.ChainIntact = err == nil
	rep.FirstBadSeq = bad
	return rep
}
