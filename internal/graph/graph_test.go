package graph

import (
	"math/rand"
	"testing"
)

// line returns a path graph 0-1-2-...-(n-1).
func line(n int) *Graph {
	g := New(n, n-1)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// grid returns an r x c grid graph with vertex (i,j) = i*c+j.
func grid(r, c int) *Graph {
	g := New(r*c, 2*r*c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			v := i*c + j
			if j+1 < c {
				g.AddEdge(v, v+1)
			}
			if i+1 < r {
				g.AddEdge(v, v+c)
			}
		}
	}
	return g
}

// randomConnected returns a connected random graph: a random spanning tree
// plus extra random edges.
func randomConnected(n, extra int, rng *rand.Rand) *Graph {
	g := New(n, n-1+extra)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for k := 0; k < extra; k++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestEdgeOther(t *testing.T) {
	e := Edge{U: 3, V: 7}
	if e.Other(3) != 7 || e.Other(7) != 3 {
		t.Errorf("Other: got %d,%d", e.Other(3), e.Other(7))
	}
	defer func() {
		if recover() == nil {
			t.Error("Other on non-endpoint did not panic")
		}
	}()
	e.Other(5)
}

func TestAddEdgeAndAdjacency(t *testing.T) {
	g := New(4, 4)
	e0 := g.AddEdge(0, 1)
	e1 := g.AddEdge(1, 2)
	e2 := g.AddEdge(2, 0)
	if e0 != 0 || e1 != 1 || e2 != 2 {
		t.Fatalf("edge ids = %d,%d,%d", e0, e1, e2)
	}
	if g.NumEdges() != 3 || g.NumVertices() != 4 {
		t.Fatalf("counts = %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees: deg(1)=%d deg(3)=%d", g.Degree(1), g.Degree(3))
	}
	found := false
	for _, a := range g.Adj(2) {
		if a.To == 0 && a.Edge == e2 {
			found = true
		}
	}
	if !found {
		t.Error("adjacency of 2 missing edge to 0")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	g := New(2, 1)
	for _, pair := range [][2]int{{-1, 0}, {0, 2}, {5, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", pair[0], pair[1])
				}
			}()
			g.AddEdge(pair[0], pair[1])
		}()
	}
}

func TestConnected(t *testing.T) {
	if !New(0, 0).Connected() {
		t.Error("empty graph should be connected")
	}
	if !New(1, 0).Connected() {
		t.Error("single vertex should be connected")
	}
	if New(2, 0).Connected() {
		t.Error("two isolated vertices should not be connected")
	}
	if !line(5).Connected() {
		t.Error("path graph should be connected")
	}
	g := line(3)
	g2 := New(4, 2)
	g2.AddEdge(0, 1)
	g2.AddEdge(2, 3)
	if g2.Connected() {
		t.Error("two components should not be connected")
	}
	_ = g
}

func TestClone(t *testing.T) {
	g := grid(3, 3)
	c := g.Clone()
	if c.NumVertices() != g.NumVertices() || c.NumEdges() != g.NumEdges() {
		t.Fatal("clone size mismatch")
	}
	c.AddEdge(0, 8)
	if g.NumEdges() == c.NumEdges() {
		t.Error("clone shares edge storage with original")
	}
}

func TestSelfLoopTolerated(t *testing.T) {
	g := New(2, 2)
	id := g.AddEdge(1, 1)
	if g.Edge(id).Other(1) != 1 {
		t.Error("self loop Other")
	}
	if g.Degree(1) != 1 {
		t.Errorf("self loop degree = %d, want 1 adjacency entry", g.Degree(1))
	}
}

func TestDSUBasics(t *testing.T) {
	d := NewDSU(5)
	if d.Sets() != 5 {
		t.Fatalf("initial sets = %d", d.Sets())
	}
	if !d.Union(0, 1) {
		t.Error("first union returned false")
	}
	if d.Union(1, 0) {
		t.Error("repeated union returned true")
	}
	d.Union(2, 3)
	d.Union(0, 3)
	if d.Sets() != 2 {
		t.Errorf("sets = %d, want 2", d.Sets())
	}
	if !d.Same(1, 2) {
		t.Error("1 and 2 should be joined")
	}
	if d.Same(4, 0) {
		t.Error("4 should be alone")
	}
	if d.SetSize(3) != 4 {
		t.Errorf("SetSize(3) = %d, want 4", d.SetSize(3))
	}
}

func TestDSURandomAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 60
	d := NewDSU(n)
	label := make([]int, n) // naive: component labels
	for i := range label {
		label[i] = i
	}
	relabel := func(from, to int) {
		for i := range label {
			if label[i] == from {
				label[i] = to
			}
		}
	}
	for op := 0; op < 500; op++ {
		x, y := rng.Intn(n), rng.Intn(n)
		wantSame := label[x] == label[y]
		if d.Same(x, y) != wantSame {
			t.Fatalf("op %d: Same(%d,%d) mismatch", op, x, y)
		}
		if rng.Intn(2) == 0 {
			merged := d.Union(x, y)
			if merged == wantSame {
				t.Fatalf("op %d: Union(%d,%d) returned %v", op, x, y, merged)
			}
			if !wantSame {
				relabel(label[y], label[x])
			}
		}
	}
}

func TestKruskalSpanningTree(t *testing.T) {
	// Square with diagonal: 0-1 (1), 1-2 (2), 2-3 (1), 3-0 (2), 0-2 (3)
	edges := []WeightedEdge{
		{U: 0, V: 1, Weight: 1},
		{U: 1, V: 2, Weight: 2},
		{U: 2, V: 3, Weight: 1},
		{U: 3, V: 0, Weight: 2},
		{U: 0, V: 2, Weight: 3},
	}
	tree := Kruskal(4, edges)
	if len(tree) != 3 {
		t.Fatalf("tree size = %d, want 3", len(tree))
	}
	if got := MSTCost(tree); got != 4 {
		t.Errorf("MST cost = %d, want 4", got)
	}
}

func TestKruskalForestOnDisconnected(t *testing.T) {
	edges := []WeightedEdge{{U: 0, V: 1, Weight: 5}, {U: 2, V: 3, Weight: 7}}
	tree := Kruskal(4, edges)
	if len(tree) != 2 {
		t.Fatalf("forest size = %d, want 2", len(tree))
	}
	if MSTCost(tree) != 12 {
		t.Errorf("forest cost = %d", MSTCost(tree))
	}
}

func TestKruskalDeterministicTieBreak(t *testing.T) {
	// The parallel edge is the first one reversed: its orientation tells
	// the two apart, and the first input edge must win the tie.
	edges := []WeightedEdge{
		{U: 0, V: 1, Weight: 1},
		{U: 1, V: 0, Weight: 1}, // parallel, same weight
		{U: 1, V: 2, Weight: 1},
	}
	for trial := 0; trial < 5; trial++ {
		tree := Kruskal(3, edges)
		if len(tree) != 2 || tree[0] != edges[0] || tree[1] != edges[2] {
			t.Fatalf("trial %d: tree = %+v", trial, tree)
		}
	}
}

func TestKruskalMatchesPrimCostRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(20)
		var edges []WeightedEdge
		// complete graph with random weights
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, WeightedEdge{U: i, V: j, Weight: int64(rng.Intn(100))})
			}
		}
		tree := Kruskal(n, edges)
		if len(tree) != n-1 {
			t.Fatalf("trial %d: tree size %d want %d", trial, len(tree), n-1)
		}
		if got, want := MSTCost(tree), primCost(n, edges); got != want {
			t.Fatalf("trial %d: kruskal cost %d, prim cost %d", trial, got, want)
		}
	}
}

// primCost is an O(n^2) Prim reference for MST cost on a dense graph.
func primCost(n int, edges []WeightedEdge) int64 {
	const inf = int64(1) << 60
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
		for j := range w[i] {
			w[i][j] = inf
		}
	}
	for _, e := range edges {
		if e.Weight < w[e.U][e.V] {
			w[e.U][e.V], w[e.V][e.U] = e.Weight, e.Weight
		}
	}
	in := make([]bool, n)
	best := make([]int64, n)
	for i := range best {
		best[i] = inf
	}
	best[0] = 0
	var total int64
	for k := 0; k < n; k++ {
		u, bu := -1, inf
		for i := 0; i < n; i++ {
			if !in[i] && best[i] < bu {
				u, bu = i, best[i]
			}
		}
		in[u] = true
		total += bu
		for v := 0; v < n; v++ {
			if !in[v] && w[u][v] < best[v] {
				best[v] = w[u][v]
			}
		}
	}
	return total
}
