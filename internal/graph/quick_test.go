package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property tests on the graph substrate, driven by testing/quick over
// PRNG seeds so every counterexample is reproducible from the logged seed.

func TestQuickDSUEquivalenceRelation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		d := NewDSU(n)
		for op := 0; op < 50; op++ {
			d.Union(rng.Intn(n), rng.Intn(n))
		}
		// Reflexive, symmetric, transitive on random triples.
		for i := 0; i < 30; i++ {
			a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if !d.Same(a, a) {
				return false
			}
			if d.Same(a, b) != d.Same(b, a) {
				return false
			}
			if d.Same(a, b) && d.Same(b, c) && !d.Same(a, c) {
				return false
			}
		}
		// Set sizes partition the universe.
		total := 0
		seen := map[int]bool{}
		for v := 0; v < n; v++ {
			r := d.Find(v)
			if !seen[r] {
				seen[r] = true
				total += d.SetSize(r)
			}
		}
		return total == n && len(seen) == d.Sets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickKruskalPermutationInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		var edges []WeightedEdge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edges = append(edges, WeightedEdge{U: i, V: j, Weight: int64(rng.Intn(1000))})
			}
		}
		cost := MSTCost(Kruskal(n, edges))
		shuffled := append([]WeightedEdge(nil), edges...)
		rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
		return MSTCost(Kruskal(n, shuffled)) == cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickAPSPMetricProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(2+rng.Intn(25), rng.Intn(25), rng)
		a := NewAPSP(g)
		n := g.NumVertices()
		for i := 0; i < 40; i++ {
			u, v, w := rng.Intn(n), rng.Intn(n), rng.Intn(n)
			if a.Dist(u, u) != 0 {
				return false
			}
			if a.Dist(u, v) != a.Dist(v, u) {
				return false
			}
			if a.Dist(u, v) > a.Dist(u, w)+a.Dist(w, v) {
				return false
			}
			// Adjacent vertices are at distance exactly 1 (or 0 loops).
			if u != v && a.Dist(u, v) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickDijkstraNeverBeatenByRandomWalk(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(2+rng.Intn(20), rng.Intn(20), rng)
		usage := make([]uint64, g.NumEdges())
		for i := range usage {
			usage[i] = uint64(rng.Intn(6))
		}
		d := NewDijkstra(g)
		n := g.NumVertices()
		src := rng.Intn(n)
		// Random walk from src: its accumulated cost must never drop
		// below the shortest-path cost to the current vertex.
		cur := src
		var walked uint64
		for step := 0; step < 50; step++ {
			adj := g.Adj(cur)
			if len(adj) == 0 {
				break
			}
			arc := adj[rng.Intn(len(adj))]
			walked += usage[arc.Edge]
			cur = arc.To
			path, ok := d.ShortestPath(src, cur, usage, nil)
			if !ok || pathCost(path, usage).Primary > walked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickSteinerTreeEdgeCountBound(t *testing.T) {
	// A Steiner tree over k distinct terminals in a connected graph of n
	// vertices has at least k-1 and at most n-1 edges. The tree is built
	// as the router's KMB does: a union of shortest paths, cleaned.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomConnected(3+rng.Intn(20), rng.Intn(25), rng)
		n := g.NumVertices()
		k := 2 + rng.Intn(minInt(5, n-1))
		terms := rng.Perm(n)[:k]
		d, cost := NewDijkstra(g), unitCosts(g)
		var union []int
		for _, v := range terms[1:] {
			union, _ = d.ShortestPath(terms[0], v, cost, union)
		}
		tree, ok := NewSteinerCleaner(g).Clean(union, terms)
		if !ok {
			return false
		}
		return len(tree) >= k-1 && len(tree) <= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
