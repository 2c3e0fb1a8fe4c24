package graph

import (
	"math/rand"
	"testing"
)

// The reference search's lexicographic cost arithmetic and frontier. They
// are test code: the engine packs costs into radix-queue keys instead.

// Less reports whether c is strictly cheaper than d.
func (c Cost) Less(d Cost) bool {
	if c.Primary != d.Primary {
		return c.Primary < d.Primary
	}
	return c.Hops < d.Hops
}

// Add returns the cost of extending a path of cost c by one edge of the
// given primary cost. It panics if the Primary sum would wrap.
func (c Cost) Add(edgePrimary uint64) Cost {
	return Cost{Primary: addPrimary(c.Primary, edgePrimary), Hops: c.Hops + 1}
}

// addPrimary returns a+b, checked before the add: a Primary that wrapped
// would silently reorder paths, so overflow is a programming error.
func addPrimary(a, b uint64) uint64 {
	if b > ^uint64(0)-a {
		panic("graph: path primary cost overflows uint64")
	}
	return a + b
}

// InfCost is larger than any reachable path cost.
var InfCost = Cost{Primary: ^uint64(0), Hops: ^uint32(0)}

type dijkstraItem struct {
	vertex int
	cost   Cost
}

// dijkstraHeap is the reference search's frontier: a typed binary min-heap
// on lexicographic Cost, independent of the engine's radix queue.
type dijkstraHeap []dijkstraItem

func (h *dijkstraHeap) push(it dijkstraItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].cost.Less(s[parent].cost) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *dijkstraHeap) pop() dijkstraItem {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.siftDown(0)
	return top
}

func (h dijkstraHeap) siftDown(i int) {
	n := len(h)
	for {
		l, rgt := 2*i+1, 2*i+2
		smallest := i
		if l < n && h[l].cost.Less(h[smallest].cost) {
			smallest = l
		}
		if rgt < n && h[rgt].cost.Less(h[smallest].cost) {
			smallest = rgt
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// referenceShortestPath is an exhaustive (prune-free) textbook search kept
// as an executable specification of the canonical tie contract: every
// relaxation that reaches a vertex at exactly its best-known cost lowers the
// recorded predecessor edge to the smaller id. The paths it reconstructs are
// a pure function of (graph, costs, src, dst) — independent of queue
// discipline — so the production engine (packed keys in a radix queue, a
// CSR snapshot, target pruning, no settled set) must reproduce it byte for
// byte. Routing results (and therefore solution files) depend on which of
// two equal-cost paths wins, which makes this the byte-identity contract of
// the whole routing stage. The reference keeps its own dist/prev/done arrays
// over the graph's own adjacency, compares lexicographic Cost values, and
// orders its frontier with a binary heap, so no part of the engine's
// bookkeeping is under test on both sides.
func referenceShortestPath(g *Graph, src, dst int, cost []uint64) ([]int, bool) {
	if src == dst {
		return nil, true
	}
	n := g.NumVertices()
	dist := make([]Cost, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = InfCost
		prev[i] = -1
	}
	dist[src] = Cost{}
	heap := dijkstraHeap{{vertex: src}}
	for len(heap) > 0 && !done[dst] {
		u := heap.pop().vertex
		if done[u] {
			continue
		}
		done[u] = true
		for _, arc := range g.Adj(u) {
			if done[arc.To] {
				continue
			}
			nc := dist[u].Add(cost[arc.Edge])
			if nc.Less(dist[arc.To]) {
				dist[arc.To] = nc
				prev[arc.To] = arc.Edge
				heap.push(dijkstraItem{vertex: arc.To, cost: nc})
			} else if nc == dist[arc.To] && arc.Edge < prev[arc.To] {
				prev[arc.To] = arc.Edge
			}
		}
	}
	if !done[dst] {
		return nil, false
	}
	var path []int
	for v := dst; v != src; v = g.Edge(prev[v]).Other(v) {
		path = append(path, prev[v])
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, true
}

// pathCost sums the lexicographic cost of a returned path, the figure a
// search used to report alongside it.
func pathCost(path []int, cost []uint64) Cost {
	var c Cost
	for _, e := range path {
		c = c.Add(cost[e])
	}
	return c
}

// checkAgainstReference drives the production engine and the reference loop
// over the same query and demands identical paths — not merely equal costs.
func checkAgainstReference(t *testing.T, label string, eng *Dijkstra, src, dst int, cost []uint64) {
	t.Helper()
	gotPath, gotOK := eng.ShortestPath(src, dst, cost, nil)
	wantPath, wantOK := referenceShortestPath(eng.g, src, dst, cost)
	gotCost, wantCost := pathCost(gotPath, cost), pathCost(wantPath, cost)
	if gotOK != wantOK || gotCost != wantCost {
		t.Fatalf("%s %d->%d: (cost=%+v ok=%v), want (cost=%+v ok=%v)",
			label, src, dst, gotCost, gotOK, wantCost, wantOK)
	}
	if len(gotPath) != len(wantPath) {
		t.Fatalf("%s %d->%d: path %v, want %v", label, src, dst, gotPath, wantPath)
	}
	for i := range gotPath {
		if gotPath[i] != wantPath[i] {
			t.Fatalf("%s %d->%d: path %v, want %v (tie broken differently)",
				label, src, dst, gotPath, wantPath)
		}
	}
}

// TestDijkstraPruneMatchesReference drives the pruned engine and the
// reference loop over the same random graphs with tiny cost ranges (so
// equal-cost ties are everywhere) and demands identical paths.
func TestDijkstraPruneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		g := randomConnected(n, rng.Intn(3*n), rng)
		usage := make([]uint64, g.NumEdges())
		for i := range usage {
			usage[i] = uint64(rng.Intn(3)) // small range: force ties
		}
		eng := NewDijkstra(g)
		for q := 0; q < 60; q++ {
			checkAgainstReference(t, "radix", eng, rng.Intn(n), rng.Intn(n), usage)
		}
	}
}

// TestDijkstraLargeCostsMatchReference covers the cost magnitudes of the
// baseline routers (usage² and (1+history)(1+usage)), whose edge costs reach
// about 2^40 instead of the router's small congestion counts. Costs are drawn
// from a handful of values near 2^40 so that ties stay common, plus a spread
// of arbitrary costs up to 2^40, and the packed radix keys must still order
// every path exactly as the reference does.
func TestDijkstraLargeCostsMatchReference(t *testing.T) {
	const big = uint64(1) << 40
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		g := randomConnected(n, rng.Intn(3*n), rng)
		usage := make([]uint64, g.NumEdges())
		for i := range usage {
			if trial%2 == 0 {
				usage[i] = big - uint64(rng.Intn(3)) // near 2^40, ties everywhere
			} else {
				usage[i] = uint64(rng.Int63n(int64(big) + 1))
			}
		}
		eng := NewDijkstra(g)
		for q := 0; q < 60; q++ {
			checkAgainstReference(t, "radix-2^40", eng, rng.Intn(n), rng.Intn(n), usage)
		}
	}
}

// TestRadixPackBounds pins the packed-key range: the largest representable
// Primary packs (and keeps its order above every smaller one), and one more
// panics instead of silently wrapping into a wrong order.
func TestRadixPackBounds(t *testing.T) {
	for _, n := range []int{1, 2, 43, 1000} {
		q := newRadixQueue(n)
		hops := uint32(n)
		top := q.pack(Cost{Primary: q.maxPri, Hops: 0})
		below := q.pack(Cost{Primary: q.maxPri - 1, Hops: hops})
		if top <= below {
			t.Fatalf("n=%d: pack(maxPri, 0)=%#x not above pack(maxPri-1, %d)=%#x", n, top, hops, below)
		}
		if got := q.pack(Cost{Primary: q.maxPri, Hops: hops}); got <= top {
			t.Fatalf("n=%d: hops %d did not order above hops 0 at maxPri", n, hops)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: pack(maxPri+1) did not panic", n)
				}
			}()
			q.pack(Cost{Primary: q.maxPri + 1})
		}()
	}
}

// TestDijkstraGridPruneMatchesReference repeats the equivalence check on a
// grid, the topology with the densest equal-cost tie structure.
func TestDijkstraGridPruneMatchesReference(t *testing.T) {
	g := grid(12, 12)
	usage := make([]uint64, g.NumEdges())
	eng := NewDijkstra(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(34))
	for q := 0; q < 200; q++ {
		checkAgainstReference(t, "radix", eng, rng.Intn(n), rng.Intn(n), usage)
	}
}

// TestDijkstraSearchZeroAlloc pins the steady state of the search loop at
// zero allocations per query: the engine's buffers are grown once and then
// reused for the life of the session.
func TestDijkstraSearchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	g := grid(20, 20)
	usage := make([]uint64, g.NumEdges())
	t.Run("radix", func(t *testing.T) {
		d := NewDijkstra(g)
		buf := make([]int, 0, 256)
		dst := g.NumVertices() - 1
		// Warm-up queries grow the queue and touched list to steady state.
		for i := 0; i < 4; i++ {
			buf, _ = d.ShortestPath(0, dst, usage, buf[:0])
		}
		allocs := testing.AllocsPerRun(50, func() {
			buf, _ = d.ShortestPath(0, dst, usage, buf[:0])
		})
		if allocs != 0 {
			t.Fatalf("ShortestPath steady state allocates %v objects per run, want 0", allocs)
		}
	})
}

// TestShortestPathCostOverflowPanics pins the engine's overflow contract
// on a triangle whose 1–2 edge costs the largest uint64: the path 0-1-2
// would wrap to Primary 0 and beat the direct edge of cost 5. The engine
// must panic instead, checking before the add. On the line 0-1-2, each edge
// cost fits the packed key's Primary field but their sum does not, so the
// engine must panic there too rather than carry out of the key.
func TestShortestPathCostOverflowPanics(t *testing.T) {
	g := New(3, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	cost := []uint64{1, ^uint64(0), 5}
	half := newRadixQueue(3).maxPri/2 + 1
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Dijkstra", func() { NewDijkstra(g).ShortestPath(0, 2, cost, nil) }},
		{"Dijkstra packed range", func() { NewDijkstra(line(3)).ShortestPath(0, 2, []uint64{half, half}, nil) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: overflowing path cost did not panic", c.name)
				}
			}()
			c.run()
		}()
	}
}

// fuzzReader hands out the fuzzer's bytes one at a time, then zeros.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// FuzzShortestPath builds a connected graph (a spanning tree plus parallel
// edges and self-loops) and edge costs from the fuzzer's bytes, and demands
// that the engine return the reference's path, edge for edge, on a run of
// queries through one reused engine. Costs come either from a tiny range,
// so equal-cost ties are everywhere, or from up to 2^40, the magnitude of
// the baseline routers' costs.
func FuzzShortestPath(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 20, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{30, 1, 7, 3, 9, 0, 4, 4, 2, 8, 1, 6, 5, 2, 40, 255, 3, 17, 88})
	f.Add([]byte{25, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 200, 100, 50, 25, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		n := 2 + int(r.next()%40)
		mode := r.next() % 3
		g := New(n, 2*n)
		for v := 1; v < n; v++ {
			g.AddEdge(int(r.next())%v, v)
		}
		for extra := r.next() % 64; extra > 0; extra-- {
			g.AddEdge(int(r.next())%n, int(r.next())%n)
		}
		const big = uint64(1) << 40
		cost := make([]uint64, g.NumEdges())
		for e := range cost {
			switch mode {
			case 0: // tiny range: ties everywhere
				cost[e] = uint64(r.next() % 3)
			case 1: // near 2^40, still tied
				cost[e] = big - uint64(r.next()%3)
			default: // arbitrary, below 2^40
				for i := 0; i < 5; i++ {
					cost[e] = cost[e]<<8 | uint64(r.next())
				}
			}
		}
		eng := NewDijkstra(g)
		for q := 0; q < 16; q++ {
			checkAgainstReference(t, "fuzz", eng, int(r.next())%n, int(r.next())%n, cost)
		}
	})
}
