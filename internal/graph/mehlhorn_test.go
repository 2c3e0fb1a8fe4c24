package graph

import (
	"math/rand"
	"testing"
)

func TestMehlhornTwoTerminalsIsShortestPath(t *testing.T) {
	g := grid(5, 5)
	m := NewMehlhornSolver(g)
	d := NewDijkstra(g)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		u, v := rng.Intn(25), rng.Intn(25)
		if u == v {
			continue
		}
		tree, ok := m.SteinerTree([]int{u, v}, unitCosts(g))
		if !ok {
			t.Fatal("grid should connect")
		}
		path, _ := d.ShortestPath(u, v, unitCosts(g), nil)
		if cost := pathCost(path, unitCosts(g)); len(tree) != int(cost.Hops) {
			t.Fatalf("trial %d: Mehlhorn 2-terminal tree has %d edges, shortest path %d", trial, len(tree), cost.Hops)
		}
		checkSteinerTree(t, g, tree, []int{u, v})
	}
}

func TestMehlhornStarGraph(t *testing.T) {
	// Center 0 with spokes to 1..4; terminals {1,2,3} need exactly their
	// spokes.
	g := New(5, 4)
	for i := 1; i <= 4; i++ {
		g.AddEdge(0, i)
	}
	m := NewMehlhornSolver(g)
	tree, ok := m.SteinerTree([]int{1, 2, 3}, unitCosts(g))
	if !ok || len(tree) != 3 {
		t.Fatalf("tree=%v ok=%v", tree, ok)
	}
	checkSteinerTree(t, g, tree, []int{1, 2, 3})
}

func TestMehlhornDisconnected(t *testing.T) {
	g := New(4, 1)
	g.AddEdge(0, 1)
	m := NewMehlhornSolver(g)
	if _, ok := m.SteinerTree([]int{0, 3}, unitCosts(g)); ok {
		t.Error("disconnected terminals accepted")
	}
}

func TestMehlhornSingleTerminal(t *testing.T) {
	g := line(3)
	m := NewMehlhornSolver(g)
	tree, ok := m.SteinerTree([]int{1}, unitCosts(g))
	if !ok || len(tree) != 0 {
		t.Errorf("tree=%v ok=%v", tree, ok)
	}
}

func TestMehlhornAvoidsCongestion(t *testing.T) {
	// Ring of 4: terminals {0,2}; one side is congested.
	g := New(4, 4)
	e01 := g.AddEdge(0, 1)
	e12 := g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	usage := make([]uint64, g.NumEdges())
	usage[e01], usage[e12] = 5, 5
	m := NewMehlhornSolver(g)
	tree, ok := m.SteinerTree([]int{0, 2}, usage)
	if !ok {
		t.Fatal("not ok")
	}
	for _, e := range tree {
		if e == e01 || e == e12 {
			t.Errorf("used congested edge %d", e)
		}
	}
}

func TestMehlhornWithinTwiceKMBRandom(t *testing.T) {
	// Both are 2-approximations; on random graphs their unit-cost tree
	// sizes should be close. Assert Mehlhorn <= 2x KMB-style baseline
	// (pairwise shortest path union) and valid.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(4+rng.Intn(30), rng.Intn(40), rng)
		n := g.NumVertices()
		k := 2 + rng.Intn(minInt(6, n-1))
		terms := rng.Perm(n)[:k]
		m := NewMehlhornSolver(g)
		tree, ok := m.SteinerTree(terms, unitCosts(g))
		if !ok {
			t.Fatalf("trial %d: not ok on connected graph", trial)
		}
		checkSteinerTree(t, g, tree, terms)

		// Baseline: star of shortest paths from terms[0].
		d := NewDijkstra(g)
		sc := NewSteinerCleaner(g)
		var union []int
		for _, v := range terms[1:] {
			union, _ = d.ShortestPath(terms[0], v, unitCosts(g), union)
		}
		star, ok := sc.Clean(union, terms)
		if !ok {
			t.Fatal("star clean failed")
		}
		if len(tree) > 2*len(star) {
			t.Errorf("trial %d: Mehlhorn %d edges vs star %d", trial, len(tree), len(star))
		}
	}
}

func TestMehlhornReusableAcrossCalls(t *testing.T) {
	g := grid(6, 6)
	m := NewMehlhornSolver(g)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(5)
		terms := rng.Perm(36)[:k]
		tree, ok := m.SteinerTree(terms, unitCosts(g))
		if !ok {
			t.Fatal("grid must connect")
		}
		checkSteinerTree(t, g, tree, terms)
	}
}

func TestFoldCost(t *testing.T) {
	a := foldCost(Cost{Primary: 1, Hops: 0})
	b := foldCost(Cost{Primary: 0, Hops: 1000})
	if a <= b {
		t.Error("primary must dominate hops")
	}
	c := foldCost(Cost{Primary: 1, Hops: 2})
	d := foldCost(Cost{Primary: 1, Hops: 3})
	if c >= d {
		t.Error("hops must break ties")
	}
	if foldCost(Cost{Primary: 1 << 50, Hops: 0}) != 1<<62-1 {
		t.Error("saturation failed")
	}
}

func BenchmarkMehlhornVsKMBStyle(b *testing.B) {
	g := grid(20, 20)
	rng := rand.New(rand.NewSource(2))
	terms := rng.Perm(400)[:12]
	costs := unitCosts(g)
	b.Run("Mehlhorn", func(b *testing.B) {
		m := NewMehlhornSolver(g)
		for i := 0; i < b.N; i++ {
			if _, ok := m.SteinerTree(terms, costs); !ok {
				b.Fatal("failed")
			}
		}
	})
	b.Run("PairwiseDijkstra", func(b *testing.B) {
		d := NewDijkstra(g)
		sc := NewSteinerCleaner(g)
		var union []int
		for i := 0; i < b.N; i++ {
			union = union[:0]
			for _, v := range terms[1:] {
				union, _ = d.ShortestPath(terms[0], v, costs, union)
			}
			if _, ok := sc.Clean(union, terms); !ok {
				b.Fatal("failed")
			}
		}
	})
}
