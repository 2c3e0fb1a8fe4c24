package graph

import (
	"math/rand"
	"testing"
)

// unitCosts returns a cost slice charging 1 per edge of g.
func unitCosts(g *Graph) []uint64 {
	c := make([]uint64, g.NumEdges())
	for i := range c {
		c[i] = 1
	}
	return c
}

func TestDijkstraTrivial(t *testing.T) {
	g := line(4)
	d := NewDijkstra(g)
	path, ok := d.ShortestPath(2, 2, unitCosts(g), nil)
	if !ok || len(path) != 0 {
		t.Errorf("self path: %v %v", path, ok)
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(5)
	d := NewDijkstra(g)
	costs := unitCosts(g)
	path, ok := d.ShortestPath(0, 4, costs, nil)
	if !ok {
		t.Fatal("unreachable")
	}
	if cost := pathCost(path, costs); cost.Primary != 4 || cost.Hops != 4 {
		t.Errorf("cost = %+v", cost)
	}
	want := []int{0, 1, 2, 3}
	if len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3, 1)
	g.AddEdge(0, 1)
	d := NewDijkstra(g)
	_, ok := d.ShortestPath(0, 2, unitCosts(g), nil)
	if ok {
		t.Error("expected unreachable")
	}
	// Engine must remain usable after an unreachable query.
	path, ok := d.ShortestPath(0, 1, unitCosts(g), nil)
	if !ok || len(path) != 1 {
		t.Errorf("after unreachable query: path=%v ok=%v", path, ok)
	}
}

func TestDijkstraAvoidsCongestedEdge(t *testing.T) {
	// Two parallel routes 0->3: direct edge (congested) vs 0-1-2-3 (free).
	g := New(4, 4)
	direct := g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	usage := make([]uint64, g.NumEdges())
	usage[direct] = 10
	d := NewDijkstra(g)
	path, ok := d.ShortestPath(0, 3, usage, nil)
	if !ok {
		t.Fatal("unreachable")
	}
	if cost := pathCost(path, usage); cost.Primary != 0 || cost.Hops != 3 {
		t.Errorf("cost = %+v, want free 3-hop path", cost)
	}
	for _, e := range path {
		if e == direct {
			t.Error("path used congested direct edge")
		}
	}
}

func TestDijkstraLexicographicPrefersFewerHops(t *testing.T) {
	// Both routes have primary cost 0; the 1-hop direct edge must win.
	g := New(4, 4)
	direct := g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	d := NewDijkstra(g)
	free := make([]uint64, g.NumEdges())
	path, ok := d.ShortestPath(0, 3, free, nil)
	if !ok || len(path) != 1 || path[0] != direct {
		t.Errorf("path = %v, want direct edge %d", path, direct)
	}
	if cost := pathCost(path, free); cost.Hops != 1 {
		t.Errorf("hops = %d", cost.Hops)
	}
}

func TestDijkstraPathIsValidWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomConnected(50, 80, rng)
	d := NewDijkstra(g)
	usage := make([]uint64, g.NumEdges())
	for i := range usage {
		usage[i] = uint64(rng.Intn(5))
	}
	for trial := 0; trial < 200; trial++ {
		src, dst := rng.Intn(50), rng.Intn(50)
		path, ok := d.ShortestPath(src, dst, usage, nil)
		if !ok {
			t.Fatal("connected graph reported unreachable")
		}
		// Walk the path and check contiguity and cost accounting: the
		// walked cost must be the optimum.
		cur := src
		var prim uint64
		for _, e := range path {
			prim += usage[e]
			cur = g.Edge(e).Other(cur) // panics if not incident
		}
		if cur != dst {
			t.Fatalf("path does not end at dst: %v", path)
		}
		if want := bellmanFord(g, src, usage)[dst]; prim != want {
			t.Fatalf("cost mismatch: walked prim=%d, optimum %d", prim, want)
		}
	}
}

func TestDijkstraMatchesBellmanFordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(25)
		g := randomConnected(n, rng.Intn(40), rng)
		usage := make([]uint64, g.NumEdges())
		for i := range usage {
			usage[i] = uint64(rng.Intn(4))
		}
		d := NewDijkstra(g)
		src := rng.Intn(n)
		want := bellmanFord(g, src, usage)
		for dst := 0; dst < n; dst++ {
			path, ok := d.ShortestPath(src, dst, usage, nil)
			if !ok {
				t.Fatalf("trial %d: unreachable %d->%d", trial, src, dst)
			}
			if cost := pathCost(path, usage); cost.Primary != want[dst] {
				t.Fatalf("trial %d: %d->%d primary=%d want %d", trial, src, dst, cost.Primary, want[dst])
			}
		}
	}
}

// bellmanFord computes primary-cost shortest distances as a reference.
func bellmanFord(g *Graph, src int, usage []uint64) []uint64 {
	const inf = ^uint64(0)
	dist := make([]uint64, g.NumVertices())
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for iter := 0; iter < g.NumVertices(); iter++ {
		changed := false
		for id, e := range g.Edges() {
			w := usage[id]
			if dist[e.U] != inf && dist[e.U]+w < dist[e.V] {
				dist[e.V] = dist[e.U] + w
				changed = true
			}
			if dist[e.V] != inf && dist[e.V]+w < dist[e.U] {
				dist[e.U] = dist[e.V] + w
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraPathBufAppend(t *testing.T) {
	g := line(3)
	d := NewDijkstra(g)
	buf := []int{42}
	path, ok := d.ShortestPath(0, 2, unitCosts(g), buf)
	if !ok || len(path) != 3 || path[0] != 42 {
		t.Errorf("append semantics broken: %v", path)
	}
}

func TestCostLessAndAdd(t *testing.T) {
	a := Cost{Primary: 1, Hops: 9}
	b := Cost{Primary: 2, Hops: 0}
	if !a.Less(b) || b.Less(a) {
		t.Error("primary must dominate hops")
	}
	c := Cost{Primary: 1, Hops: 3}
	if !c.Less(a) {
		t.Error("hops tie-break failed")
	}
	if got := c.Add(5); got.Primary != 6 || got.Hops != 4 {
		t.Errorf("Add = %+v", got)
	}
	if InfCost.Less(a) {
		t.Error("InfCost must not be less than finite cost")
	}
}

func BenchmarkDijkstraGrid(b *testing.B) {
	g := grid(20, 20)
	d := NewDijkstra(g)
	usage := make([]uint64, g.NumEdges())
	var buf []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		buf, _ = d.ShortestPath(0, g.NumVertices()-1, usage, buf)
	}
}
