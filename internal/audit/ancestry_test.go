package audit

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"

	"lciot/internal/ifc"
)

// checkEdgeLocked asserts how the edge src -> dst of kind k is recorded:
// with a data endpoint, it appears exactly once in that data node's own
// list (out for a data source, in for a data destination); between two
// non-data nodes, it is in the edge set. The caller holds g.mu.
func checkEdgeLocked(t *testing.T, g *Graph, src, dst uint32, k uint8) {
	t.Helper()
	count := func(words []uint64, w uint64) (n int) {
		for _, x := range words {
			if x == w {
				n++
			}
		}
		return n
	}
	name := func(s uint32) string { return g.slots[s].id }
	sd, dd := g.slots[src].kind == NodeData, g.slots[dst].kind == NodeData
	if n := count(g.slots[src].out, pack(dst, k)); sd && n != 1 {
		t.Fatalf("edge %s -> %s (kind %d) appears %d times in its data source's list", name(src), name(dst), k, n)
	}
	if n := count(g.slots[dst].in, pack(src, k)); dd && n != 1 {
		t.Fatalf("edge %s -> %s (kind %d) appears %d times in its data destination's list", name(src), name(dst), k, n)
	}
	if _, ok := g.edges[edgeKey{src, dst, k}]; !sd && !dd && !ok {
		t.Fatalf("edge %s -> %s (kind %d) between non-data nodes missing from the edge set", name(src), name(dst), k)
	}
}

// checkEdgeWords checks the whole representation: every out word is
// recorded as checkEdgeLocked says, Len's edge count is the number of
// distinct words, and the set holds the non-data edges and nothing else —
// a stale key would turn a later edge between reused slots into a
// duplicate.
func checkEdgeWords(t *testing.T, g *Graph) {
	t.Helper()
	g.mu.RLock()
	defer g.mu.RUnlock()
	distinct := map[edgeKey]bool{}
	keyed := 0
	for _, s := range g.index {
		for _, w := range g.slots[s].out {
			far, k := unpack(w)
			checkEdgeLocked(t, g, s, far, k)
			key := edgeKey{s, far, k}
			if !distinct[key] && g.slots[s].kind != NodeData && g.slots[far].kind != NodeData {
				keyed++
			}
			distinct[key] = true
		}
	}
	if g.nedges != len(distinct) {
		t.Fatalf("edge count %d, distinct adjacency words %d", g.nedges, len(distinct))
	}
	if len(g.edges) != keyed {
		t.Fatalf("edge set holds %d keys, %d edges join two non-data nodes", len(g.edges), keyed)
	}
}

// bruteReach recomputes a reachability set from scratch, bypassing the
// memo and walkLocked — the reference the memoized path must match after
// any interleaving of mutations and queries. It walks the slot adjacency
// by node ID with a plain set, and checks how each word's edge is recorded.
func bruteReach(t *testing.T, g *Graph, id string, outgoing bool) []string {
	t.Helper()
	g.mu.RLock()
	defer g.mu.RUnlock()
	seen := map[string]bool{id: true}
	frontier := []string{id}
	var out []string
	for len(frontier) > 0 {
		var next []string
		for _, n := range frontier {
			s := g.index[n]
			adj := g.slots[s].out
			if !outgoing {
				adj = g.slots[s].in
			}
			for _, w := range adj {
				far, k := unpack(w)
				if outgoing {
					checkEdgeLocked(t, g, s, far, k)
				} else {
					checkEdgeLocked(t, g, far, s, k)
				}
				other := g.slots[far].id
				if seen[other] {
					continue
				}
				seen[other] = true
				out = append(out, other)
				next = append(next, other)
			}
		}
		frontier = next
	}
	sort.Strings(out)
	return out
}

// TestAncestryMemoMatchesBruteForce interleaves random node/edge insertions
// with ancestry and descendants queries, checking every memoized answer
// against a fresh walk.
func TestAncestryMemoMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := &Graph{}
		var ids []string
		addNode := func() {
			id := "n" + strconv.Itoa(len(ids))
			g.AddNode(Node{ID: id, Kind: NodeData})
			ids = append(ids, id)
		}
		for i := 0; i < 5; i++ {
			addNode()
		}
		for step := 0; step < 300; step++ {
			switch r.Intn(5) {
			case 0:
				addNode()
			case 1, 2:
				src := ids[r.Intn(len(ids))]
				dst := ids[r.Intn(len(ids))]
				if err := g.AddEdge(Edge{Src: src, Dst: dst, Kind: EdgeDerivedFrom}); err != nil {
					t.Fatal(err)
				}
			default:
				id := ids[r.Intn(len(ids))]
				outgoing := r.Intn(2) == 0
				var got []string
				var err error
				if outgoing {
					got, err = g.Ancestry(id)
				} else {
					got, err = g.Descendants(id)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := bruteReach(t, g, id, outgoing)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: query(%s, out=%v) = %v, brute force %v",
						seed, step, id, outgoing, got, want)
				}
				// Query again: the memoized answer must be identical.
				var again []string
				if outgoing {
					again, _ = g.Ancestry(id)
				} else {
					again, _ = g.Descendants(id)
				}
				if !reflect.DeepEqual(again, want) {
					t.Fatalf("seed %d step %d: memoized repeat diverged: %v vs %v", seed, step, again, want)
				}
			}
		}
		checkEdgeWords(t, g)
	}
}

// TestAncestryMemoInvalidatedByAddEdge: an ancestry set computed before an
// AddEdge must not be served after it.
func TestAncestryMemoInvalidatedByAddEdge(t *testing.T) {
	g := &Graph{}
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(Node{ID: id, Kind: NodeData})
	}
	if err := g.AddEdge(Edge{Src: "a", Dst: "b", Kind: EdgeDerivedFrom}); err != nil {
		t.Fatal(err)
	}
	anc, err := g.Ancestry("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(anc, []string{"b"}) {
		t.Fatalf("ancestry before extension = %v", anc)
	}
	if err := g.AddEdge(Edge{Src: "b", Dst: "c", Kind: EdgeDerivedFrom}); err != nil {
		t.Fatal(err)
	}
	anc, err = g.Ancestry("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(anc, []string{"b", "c"}) {
		t.Fatalf("ancestry after extension = %v (stale memo served?)", anc)
	}
}

// TestAncestryResultIsACopy: mutating a returned set must not corrupt the
// memo for subsequent callers.
func TestAncestryResultIsACopy(t *testing.T) {
	g := &Graph{}
	for _, id := range []string{"a", "b", "c"} {
		g.AddNode(Node{ID: id, Kind: NodeData})
	}
	for _, e := range []Edge{{Src: "a", Dst: "b"}, {Src: "a", Dst: "c"}} {
		e.Kind = EdgeDerivedFrom
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	first, _ := g.Ancestry("a")
	first[0] = "corrupted"
	second, _ := g.Ancestry("a")
	if !reflect.DeepEqual(second, []string{"b", "c"}) {
		t.Fatalf("memo corrupted through a returned slice: %v", second)
	}
}

// TestAppendMatchesBuildGraph: building once and appending in batches must
// yield a graph answering identically to a full rebuild.
func TestAppendMatchesBuildGraph(t *testing.T) {
	mkRecords := func(n, off int) []Record {
		var recs []Record
		for i := 0; i < n; i++ {
			recs = append(recs, Record{
				Kind:   FlowAllowed,
				Src:    entityID("p", off+i),
				Dst:    entityID("p", off+i+1),
				DataID: "d" + strconv.Itoa(off+i),
				Agent:  "agent",
			})
		}
		return recs
	}
	batch1, batch2 := mkRecords(20, 0), mkRecords(20, 20)

	incremental := BuildGraph(batch1)
	// Interleave queries so the memo is warm when batch2 lands.
	if _, err := incremental.Ancestry("p20"); err != nil {
		t.Fatal(err)
	}
	incremental.Append(batch2)

	full := BuildGraph(append(append([]Record(nil), batch1...), batch2...))

	in, ie := incremental.Len()
	fn, fe := full.Len()
	if in != fn || ie != fe {
		t.Fatalf("incremental graph %d/%d, full rebuild %d/%d", in, ie, fn, fe)
	}
	for _, probe := range []string{"p40", "p0", "d39", "agent"} {
		a, err := incremental.Ancestry(probe)
		if err != nil {
			t.Fatal(err)
		}
		b, err := full.Ancestry(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ancestry(%s): incremental %v, full %v", probe, a, b)
		}
		da, _ := incremental.Descendants(probe)
		db, _ := full.Descendants(probe)
		if !reflect.DeepEqual(da, db) {
			t.Fatalf("descendants(%s): incremental %v, full %v", probe, da, db)
		}
	}
}

func entityID(prefix string, i int) ifc.EntityID {
	return ifc.EntityID(fmt.Sprintf("%s%d", prefix, i))
}

// TestAncestryConcurrentQueriesAndAppends: memo fills and epoch bumps under
// concurrent load must be race-clean (run with -race).
func TestAncestryConcurrentQueriesAndAppends(t *testing.T) {
	g := &Graph{}
	for i := 0; i < 50; i++ {
		g.AddNode(Node{ID: "n" + strconv.Itoa(i), Kind: NodeProcess})
	}
	for i := 0; i < 49; i++ {
		if err := g.AddEdge(Edge{Src: "n" + strconv.Itoa(i), Dst: "n" + strconv.Itoa(i+1), Kind: EdgeInformedBy}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				switch {
				case w == 0 && i%10 == 0:
					_ = g.AddEdge(Edge{
						Src:  "n" + strconv.Itoa(r.Intn(50)),
						Dst:  "n" + strconv.Itoa(r.Intn(50)),
						Kind: EdgeInformedBy,
					})
				case i%2 == 0:
					if _, err := g.Ancestry("n" + strconv.Itoa(r.Intn(50))); err != nil {
						t.Error(err)
						return
					}
				default:
					if _, err := g.Descendants("n" + strconv.Itoa(r.Intn(50))); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestReachRacingRemoval: a node removed while a query upgrades its lock
// must be reported unknown, not answered (and memoized) as an empty set.
// Node x has an edge in each direction whenever it is present, so every
// answer is either ErrUnknownNode or non-empty. Run with -race.
func TestReachRacingRemoval(t *testing.T) {
	g := &Graph{}
	// One record creates x with y -> x (wasInformedBy) and x -> a
	// (wasControlledBy) under one lock: x never exists without edges.
	rec := []Record{{Kind: FlowAllowed, Src: "x", Dst: "y", Agent: "a"}}
	g.Append(rec)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g.RemoveNodes(map[string]bool{"x": true})
			g.Append(rec)
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(outgoing bool) {
			defer readers.Done()
			for i := 0; i < 5000; i++ {
				query := g.Descendants
				if outgoing {
					query = g.Ancestry
				}
				set, err := query("x")
				if err == nil && len(set) == 0 {
					t.Errorf("query(x, out=%v) = empty set, nil error", outgoing)
					return
				}
				if err != nil && !errors.Is(err, ErrUnknownNode) {
					t.Errorf("query(x, out=%v) = %v", outgoing, err)
					return
				}
			}
		}(w%2 == 0)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
