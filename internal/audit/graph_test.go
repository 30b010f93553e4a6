package audit

import (
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lciot/internal/ifc"
)

// fig11Graph reconstructs the audit-graph fragment of Fig. 11: data items
// F1..F4, processes P1, P2, agents A1, A2. P1 used F1 and F2 and generated
// F3; P2 used F3 and generated F4; P2 was informed by P1; A1 controls P1,
// A2 controls P2.
func fig11Graph(t *testing.T) *Graph {
	t.Helper()
	g := &Graph{}
	for _, f := range []string{"F1", "F2", "F3", "F4"} {
		g.AddNode(Node{ID: f, Kind: NodeData})
	}
	for _, p := range []string{"P1", "P2"} {
		g.AddNode(Node{ID: p, Kind: NodeProcess})
	}
	for _, a := range []string{"A1", "A2"} {
		g.AddNode(Node{ID: a, Kind: NodeAgent})
	}
	edges := []Edge{
		{Src: "P1", Dst: "F1", Kind: EdgeUsed},
		{Src: "P1", Dst: "F2", Kind: EdgeUsed},
		{Src: "F3", Dst: "P1", Kind: EdgeGeneratedBy},
		{Src: "P2", Dst: "F3", Kind: EdgeUsed},
		{Src: "F4", Dst: "P2", Kind: EdgeGeneratedBy},
		{Src: "P2", Dst: "P1", Kind: EdgeInformedBy},
		{Src: "P1", Dst: "A1", Kind: EdgeControlledBy},
		{Src: "P2", Dst: "A2", Kind: EdgeControlledBy},
	}
	for _, e := range edges {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestFig11AuditGraph is experiment E11: the forensic queries of Section
// 8.3 over the Fig. 11 fragment.
func TestFig11AuditGraph(t *testing.T) {
	g := fig11Graph(t)

	// "How was F4 generated?" — its ancestry must reach back to F1 and F2.
	anc, err := g.Ancestry("F4")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"A1", "A2", "F1", "F2", "F3", "P1", "P2"}
	if !reflect.DeepEqual(anc, want) {
		t.Fatalf("Ancestry(F4) = %v, want %v", anc, want)
	}

	// "Who is responsible for F4?" — both agents.
	agents, err := g.Agents("F4")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agents, []string{"A1", "A2"}) {
		t.Fatalf("Agents(F4) = %v", agents)
	}

	// "Where did F1's data end up?" — descendants include F3 and F4.
	desc, err := g.Descendants("F1")
	if err != nil {
		t.Fatal(err)
	}
	for _, must := range []string{"F3", "F4", "P1", "P2"} {
		if !containsString(desc, must) {
			t.Errorf("Descendants(F1) = %v, missing %s", desc, must)
		}
	}
	// F2's consumption does not taint F1.
	if containsString(desc, "F2") {
		t.Errorf("Descendants(F1) = %v wrongly includes F2", desc)
	}

	if anc, err := g.Ancestry("F4"); err != nil || !containsString(anc, "F1") {
		t.Fatalf("Ancestry(F4) = %v, %v; want F1 in it", anc, err)
	}
	if anc, err := g.Ancestry("F1"); err != nil || containsString(anc, "F4") {
		t.Fatalf("Ancestry(F1) = %v, %v (ancestry is directed)", anc, err)
	}
}

func containsString(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func TestGraphUnknownNodeErrors(t *testing.T) {
	g := fig11Graph(t)
	if _, err := g.Ancestry("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Ancestry(unknown) = %v", err)
	}
	if _, err := g.Descendants("nope"); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Descendants(unknown) = %v", err)
	}
	if err := g.AddEdge(Edge{Src: "nope", Dst: "F1"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("AddEdge(unknown src) = %v", err)
	}
	if err := g.AddEdge(Edge{Src: "F1", Dst: "nope"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("AddEdge(unknown dst) = %v", err)
	}
}

func TestGraphLen(t *testing.T) {
	g := fig11Graph(t)
	nodes, edges := g.Len()
	if nodes != 8 || edges != 8 {
		t.Fatalf("Len = %d nodes, %d edges; want 8, 8", nodes, edges)
	}
}

func TestBuildGraphFromLog(t *testing.T) {
	l := NewLog(testClock())
	l.AppendAsync(Record{
		Kind: FlowAllowed, Src: "sensor", Dst: "analyser",
		DataID: "reading-1", Agent: ifc.PrincipalID("hospital"),
	})
	l.AppendAsync(Record{Kind: FlowDenied, Src: "sensor", Dst: "advertiser", DataID: "reading-1"})
	l.AppendAsync(Record{Kind: FlowAllowed, Src: "analyser", Dst: "archive", DataID: "reading-1"})

	g := BuildGraph(l.Select(nil))

	// Denied flows must not contribute provenance.
	if _, ok := g.Node("advertiser"); ok {
		t.Fatal("denied flow created a node")
	}
	// The datum's descendants include both hops.
	desc, err := g.Descendants("reading-1")
	if err != nil {
		t.Fatal(err)
	}
	if !containsString(desc, "analyser") {
		t.Fatalf("Descendants(reading-1) = %v", desc)
	}
	// The analyser's ancestry reaches the controlling agent.
	agents, err := g.Agents("analyser")
	if err != nil {
		t.Fatal(err)
	}
	if !containsString(agents, "hospital") {
		t.Fatalf("Agents(analyser) = %v", agents)
	}
}

func TestGraphDOTExport(t *testing.T) {
	g := fig11Graph(t)
	dot := g.DOT()
	for _, frag := range []string{
		"digraph provenance",
		`"F1" [shape=ellipse]`,
		`"P1" [shape=box]`,
		`"A1" [shape=diamond]`,
		`"F3" -> "P1" [label="wasGeneratedBy"]`,
		`"P2" -> "P1" [label="wasInformedBy"]`,
	} {
		if !strings.Contains(dot, frag) {
			t.Errorf("DOT output missing %q", frag)
		}
	}
	// Deterministic output.
	if dot != g.DOT() {
		t.Error("DOT output not deterministic")
	}
}

func TestGraphJSONExport(t *testing.T) {
	g := fig11Graph(t)
	b, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Nodes []struct {
			ID   string `json:"id"`
			Kind string `json:"kind"`
		} `json:"nodes"`
		Edges []struct {
			Src, Dst, Kind string
		} `json:"edges"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Nodes) != 8 || len(decoded.Edges) != 8 {
		t.Fatalf("exported %d nodes, %d edges", len(decoded.Nodes), len(decoded.Edges))
	}
}

// TestGraphExportsUnchanged pins DOT and JSON output byte for byte, so a
// change of the graph's representation cannot change what external tools
// read, and checks that re-appending the same records changes neither.
func TestGraphExportsUnchanged(t *testing.T) {
	g := fig11Graph(t)
	recs := []Record{
		{Kind: FlowAllowed, Src: "P2", Dst: "P3", DataID: "F5", Agent: "A1",
			DstCtx: ifc.MustContext([]ifc.Tag{"medical"}, nil)},
		{Kind: GateCrossing, Src: "P3", Dst: "P4", DataID: "F6"},
	}
	const wantDOT = `digraph provenance {
  "A1" [shape=diamond];
  "A2" [shape=diamond];
  "F1" [shape=ellipse];
  "F2" [shape=ellipse];
  "F3" [shape=ellipse];
  "F4" [shape=ellipse];
  "F5" [shape=ellipse];
  "F6" [shape=ellipse];
  "P1" [shape=box];
  "P2" [shape=box];
  "P3" [shape=box];
  "P4" [shape=box];
  "F3" -> "P1" [label="wasGeneratedBy"];
  "F4" -> "P2" [label="wasGeneratedBy"];
  "F5" -> "P3" [label="wasGeneratedBy"];
  "F6" -> "P4" [label="wasGeneratedBy"];
  "P1" -> "A1" [label="wasControlledBy"];
  "P1" -> "F1" [label="used"];
  "P1" -> "F2" [label="used"];
  "P2" -> "A1" [label="wasControlledBy"];
  "P2" -> "A2" [label="wasControlledBy"];
  "P2" -> "F3" [label="used"];
  "P2" -> "F5" [label="used"];
  "P2" -> "P1" [label="wasInformedBy"];
  "P3" -> "F6" [label="used"];
  "P3" -> "P2" [label="wasInformedBy"];
  "P4" -> "P3" [label="wasInformedBy"];
}
`
	const wantJSON = `{"nodes":[{"id":"A1","kind":"agent"},{"id":"A2","kind":"agent"},{"id":"F1","kind":"data"},{"id":"F2","kind":"data"},{"id":"F3","kind":"data"},{"id":"F4","kind":"data"},{"id":"F5","kind":"data"},{"id":"F6","kind":"data"},{"id":"P1","kind":"process"},{"id":"P2","kind":"process"},{"id":"P3","kind":"process","attrs":{"ctx":"S={medical} I=∅"}},{"id":"P4","kind":"process","attrs":{"ctx":"S=∅ I=∅"}}],"edges":[{"src":"F3","dst":"P1","kind":"wasGeneratedBy"},{"src":"F4","dst":"P2","kind":"wasGeneratedBy"},{"src":"F5","dst":"P3","kind":"wasGeneratedBy"},{"src":"F6","dst":"P4","kind":"wasGeneratedBy"},{"src":"P1","dst":"F1","kind":"used"},{"src":"P1","dst":"F2","kind":"used"},{"src":"P1","dst":"A1","kind":"wasControlledBy"},{"src":"P2","dst":"F3","kind":"used"},{"src":"P2","dst":"P1","kind":"wasInformedBy"},{"src":"P2","dst":"A2","kind":"wasControlledBy"},{"src":"P2","dst":"F5","kind":"used"},{"src":"P2","dst":"A1","kind":"wasControlledBy"},{"src":"P3","dst":"P2","kind":"wasInformedBy"},{"src":"P3","dst":"F6","kind":"used"},{"src":"P4","dst":"P3","kind":"wasInformedBy"}]}`
	for round := 0; round < 2; round++ {
		g.Append(recs)
		if got := g.DOT(); got != wantDOT {
			t.Fatalf("round %d: DOT =\n%s\nwant\n%s", round, got, wantDOT)
		}
		js, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(js) != wantJSON {
			t.Fatalf("round %d: JSON =\n%s\nwant\n%s", round, js, wantJSON)
		}
	}
}

func TestComplianceReport(t *testing.T) {
	l := NewLog(testClock())
	l.AppendAsync(flowRecord("a", "b", true))
	l.AppendAsync(flowRecord("a", "x", false))
	l.AppendAsync(Record{Kind: BreakGlass, Src: "policy-engine", Note: "emergency override"})

	rep := Report(l)
	if rep.Total != 3 {
		t.Fatalf("Total = %d", rep.Total)
	}
	if rep.ByKind["flow-denied"] != 1 || rep.ByKind["break-glass"] != 1 {
		t.Fatalf("ByKind = %v", rep.ByKind)
	}
	if len(rep.Denials) != 1 || rep.Denials[0].Dst != "x" {
		t.Fatalf("Denials = %v", rep.Denials)
	}
	if len(rep.BreakGlass) != 1 {
		t.Fatalf("BreakGlass = %v", rep.BreakGlass)
	}
	if !rep.ChainIntact || rep.FirstBadSeq != -1 {
		t.Fatalf("chain report = %v, %d", rep.ChainIntact, rep.FirstBadSeq)
	}
}

func TestNodeEdgeKindStrings(t *testing.T) {
	if NodeData.String() != "data" || NodeProcess.String() != "process" || NodeAgent.String() != "agent" {
		t.Fatal("node kind strings")
	}
	if NodeKind(9).String() != "NodeKind(9)" {
		t.Fatal("unknown node kind")
	}
	if EdgeKind(9).String() != "EdgeKind(9)" {
		t.Fatal("unknown edge kind")
	}
}

// TestAppendCostPerMessage pins what one flow record costs the graph, in
// counts: its datum and the datum's two edges, nothing per message for
// the process and agent relations a stream repeats, and no attribute map
// once its processes exist.
func TestAppendCostPerMessage(t *testing.T) {
	triples := [][3]string{ // (src, dst, agent)
		{"sensor", "analyser", "hospital"},
		{"sensor", "archive", "hospital"},
		{"analyser", "archive", "clinic"},
		{"archive", "sensor", "clinic"},
		{"sensor", "analyser", "clinic"},
	}
	const n = 1000
	g := &Graph{}
	procs, agents := map[string]bool{}, map[string]bool{}
	flows, controls := map[[2]string]bool{}, map[[2]string]bool{}
	for i := 0; i < n; i++ {
		tr := triples[i%len(triples)]
		g.Append([]Record{{
			Kind: FlowAllowed, Src: ifc.EntityID(tr[0]), Dst: ifc.EntityID(tr[1]),
			DataID: "reading-" + strconv.Itoa(i), Agent: ifc.PrincipalID(tr[2]),
		}})
		procs[tr[0]], procs[tr[1]], agents[tr[2]] = true, true, true
		flows[[2]string{tr[0], tr[1]}] = true
		controls[[2]string{tr[0], tr[2]}] = true
	}
	nodes, edges := g.Len()
	if want := n + len(procs) + len(agents); nodes != want {
		t.Fatalf("nodes = %d, want %d data + %d processes + %d agents", nodes, n, len(procs), len(agents))
	}
	if want := 2*n + len(flows) + len(controls); edges != want {
		t.Fatalf("edges = %d, want %d data edges + %d informedBy + %d controlledBy",
			edges, 2*n, len(flows), len(controls))
	}

	// A record whose processes, agent and datum all exist adds nothing:
	// no node, no edge, no attribute map.
	repeat := []Record{{Kind: FlowAllowed, Src: "sensor", Dst: "analyser", DataID: "reading-0", Agent: "hospital"}}
	if allocs := testing.AllocsPerRun(100, func() { g.Append(repeat) }); allocs != 0 {
		t.Fatalf("re-appending a known record allocates %.1f times", allocs)
	}
	// A record with a new datum over known processes and agent allocates
	// only that datum's slot, index entry and two one-word adjacency
	// lists, amortized: its two edges take no edge-set entries.
	const runs = 1000
	fresh := make([][]Record, runs+1)
	for i := range fresh {
		fresh[i] = []Record{{Kind: FlowAllowed, Src: "sensor", Dst: "analyser",
			DataID: "new-" + strconv.Itoa(i), Agent: "hospital"}}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() { g.Append(fresh[next]); next++ })
	if allocs > 3 {
		t.Fatalf("appending a record with a new datum allocates %.1f times, want at most 3", allocs)
	}
}
