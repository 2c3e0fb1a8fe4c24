package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// checkSteinerTree verifies that tree edges connect all terminals, form a
// forest with exactly one component touching the terminals, and have no
// non-terminal leaves.
func checkSteinerTree(t *testing.T, g *Graph, tree []int, terminals []int) {
	t.Helper()
	if len(terminals) <= 1 {
		if len(tree) != 0 {
			t.Fatalf("tree for <=1 terminals should be empty, got %v", tree)
		}
		return
	}
	deg := map[int]int{}
	dsu := NewDSU(g.NumVertices())
	seen := map[int]bool{}
	for _, e := range tree {
		if seen[e] {
			t.Fatalf("duplicate edge %d in tree", e)
		}
		seen[e] = true
		ed := g.Edge(e)
		if !dsu.Union(ed.U, ed.V) {
			t.Fatalf("tree contains a cycle at edge %d", e)
		}
		deg[ed.U]++
		deg[ed.V]++
	}
	for _, term := range terminals[1:] {
		if !dsu.Same(terminals[0], term) {
			t.Fatalf("terminal %d not connected", term)
		}
	}
	isTerm := map[int]bool{}
	for _, term := range terminals {
		isTerm[term] = true
	}
	for v, d := range deg {
		if d == 1 && !isTerm[v] {
			t.Fatalf("non-terminal leaf %d", v)
		}
	}
}

func TestSteinerCleanSimplePath(t *testing.T) {
	g := line(5)
	sc := NewSteinerCleaner(g)
	tree, ok := sc.Clean([]int{0, 1, 2, 3}, []int{0, 4})
	if !ok || len(tree) != 4 {
		t.Fatalf("tree=%v ok=%v", tree, ok)
	}
	checkSteinerTree(t, g, tree, []int{0, 4})
}

func TestSteinerCleanTrimsDangling(t *testing.T) {
	// Path 0-1-2 plus a dangling branch 1-3; terminals {0,2}.
	g := New(4, 3)
	e01 := g.AddEdge(0, 1)
	e12 := g.AddEdge(1, 2)
	e13 := g.AddEdge(1, 3)
	sc := NewSteinerCleaner(g)
	tree, ok := sc.Clean([]int{e01, e12, e13}, []int{0, 2})
	if !ok {
		t.Fatal("not ok")
	}
	if len(tree) != 2 {
		t.Fatalf("tree = %v, want the 2 path edges", tree)
	}
	for _, e := range tree {
		if e == e13 {
			t.Error("dangling edge kept")
		}
	}
	checkSteinerTree(t, g, tree, []int{0, 2})
}

func TestSteinerCleanBreaksCycle(t *testing.T) {
	// Triangle 0-1-2 with all edges included; terminals {0,1,2}.
	g := New(3, 3)
	edges := []int{g.AddEdge(0, 1), g.AddEdge(1, 2), g.AddEdge(2, 0)}
	sc := NewSteinerCleaner(g)
	tree, ok := sc.Clean(edges, []int{0, 1, 2})
	if !ok || len(tree) != 2 {
		t.Fatalf("tree=%v ok=%v, want 2 edges", tree, ok)
	}
	checkSteinerTree(t, g, tree, []int{0, 1, 2})
}

func TestSteinerCleanDisconnectedTerminals(t *testing.T) {
	g := New(4, 2)
	e01 := g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	sc := NewSteinerCleaner(g)
	if _, ok := sc.Clean([]int{e01}, []int{0, 3}); ok {
		t.Error("expected ok=false for disconnected terminals")
	}
}

func TestSteinerCleanSingleTerminal(t *testing.T) {
	g := line(3)
	sc := NewSteinerCleaner(g)
	tree, ok := sc.Clean([]int{0, 1}, []int{1})
	if !ok || len(tree) != 0 {
		t.Errorf("single terminal: tree=%v ok=%v", tree, ok)
	}
	tree, ok = sc.Clean(nil, nil)
	if !ok || len(tree) != 0 {
		t.Errorf("no terminals: tree=%v ok=%v", tree, ok)
	}
}

func TestSteinerCleanDuplicateEdgesTolerated(t *testing.T) {
	g := line(4)
	sc := NewSteinerCleaner(g)
	tree, ok := sc.Clean([]int{0, 0, 1, 1, 2, 2}, []int{0, 3})
	if !ok || len(tree) != 3 {
		t.Fatalf("tree=%v ok=%v", tree, ok)
	}
	checkSteinerTree(t, g, tree, []int{0, 3})
}

func TestSteinerCleanReuseAcrossEpochs(t *testing.T) {
	g := grid(4, 4)
	sc := NewSteinerCleaner(g)
	rng := rand.New(rand.NewSource(3))
	all := make([]int, g.NumEdges())
	for i := range all {
		all[i] = i
	}
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(5)
		terms := rng.Perm(g.NumVertices())[:k]
		tree, ok := sc.Clean(all, terms)
		if !ok {
			t.Fatalf("trial %d: grid should connect all terminals", trial)
		}
		checkSteinerTree(t, g, tree, terms)
	}
}

func TestSteinerCleanRandomUnionsOfPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		g := randomConnected(3+rng.Intn(30), rng.Intn(40), rng)
		sc := NewSteinerCleaner(g)
		d := NewDijkstra(g)
		n := g.NumVertices()
		k := 2 + rng.Intn(minInt(5, n-1))
		terms := rng.Perm(n)[:k]
		// Union of shortest paths between consecutive terminals, as the
		// KMB router produces.
		var union []int
		for i := 1; i < k; i++ {
			union, _ = d.ShortestPath(terms[0], terms[i], unitCosts(g), union)
		}
		tree, ok := sc.Clean(union, terms)
		if !ok {
			t.Fatalf("trial %d: union of paths must connect terminals", trial)
		}
		checkSteinerTree(t, g, tree, terms)
		if len(tree) > len(union) {
			t.Fatalf("trial %d: cleanup grew the edge set", trial)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func BenchmarkSteinerClean(b *testing.B) {
	g := grid(15, 15)
	sc := NewSteinerCleaner(g)
	all := make([]int, g.NumEdges())
	for i := range all {
		all[i] = i
	}
	terms := []int{0, 14, 210, 224, 112}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sc.Clean(all, terms); !ok {
			b.Fatal("clean failed")
		}
	}
}

// TestTwoPinTreeIsPath pins the lemma behind the router's 2-pin shortcut:
// cleaning a single shortest path over its two endpoints returns the path
// itself, edge for edge and in order. The BFS from the source visits the
// path's vertices in path order, and the only leaf is the other terminal,
// so nothing is trimmed. The graphs are multigraphs with self-loops, and
// the costs come from a tiny range, so equal-cost ties are everywhere.
func TestTwoPinTreeIsPath(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomConnected(n, rng.Intn(3*n), rng)
		for k := rng.Intn(n); k > 0; k-- { // parallel edges
			e := g.Edge(rng.Intn(g.NumEdges()))
			g.AddEdge(e.U, e.V)
		}
		g.AddEdge(rng.Intn(n), rng.Intn(n)) // possibly a self-loop
		cost := make([]uint64, g.NumEdges())
		for e := range cost {
			cost[e] = uint64(rng.Intn(3))
		}
		dij, sc := NewDijkstra(g), NewSteinerCleaner(g)
		for q := 0; q < 20; q++ {
			s, d := rng.Intn(n), rng.Intn(n)
			path, ok := dij.ShortestPath(s, d, cost, nil)
			if !ok {
				t.Fatalf("seed %d: %d→%d unreachable in a connected graph", seed, s, d)
			}
			tree, ok := sc.CleanAppend(nil, path, []int{s, d})
			if !ok {
				t.Fatalf("seed %d: path %v does not connect %d and %d", seed, path, s, d)
			}
			if !slices.Equal(tree, path) {
				t.Fatalf("seed %d, %d→%d: cleaned tree %v, want the path %v", seed, s, d, tree, path)
			}
		}
	}
}
