package graph

import (
	"math/rand"
	"testing"
)

// referenceShortestPath is an exhaustive (prune-free) search loop kept as an
// executable specification of the canonical tie contract: every relaxation
// that reaches a vertex at exactly its best-known cost lowers the recorded
// predecessor edge to the smaller id. The paths it reconstructs are a pure
// function of (graph, costs, src, dst) — independent of queue discipline —
// so the production engine (a radix queue with target pruning) must
// reproduce it byte for byte. Routing results (and therefore solution files)
// depend on which of two equal-cost paths wins, which makes this the
// byte-identity contract of the whole routing stage. The reference borrows
// d's dist/prev bookkeeping but orders its frontier with its own binary
// heap, so no part of the radix queue is under test on both sides.
func referenceShortestPath(d *Dijkstra, src, dst int, costFn EdgeCostFunc, pathBuf []int) ([]int, Cost, bool) {
	if src == dst {
		return pathBuf, Cost{}, true
	}
	d.reset()
	d.visit(src, Cost{}, -1)
	heap := dijkstraHeap{{vertex: src}}

	found := false
	for len(heap) > 0 {
		it := heap.pop()
		u := it.vertex
		if d.done[u] {
			continue
		}
		d.done[u] = true
		if u == dst {
			found = true
			break
		}
		du := d.dist[u]
		for _, arc := range d.g.Adj(u) {
			if d.done[arc.To] {
				continue
			}
			nc := du.Add(costFn(arc.Edge))
			if nc.Less(d.dist[arc.To]) {
				d.visit(arc.To, nc, int32(arc.Edge))
				heap.push(dijkstraItem{vertex: arc.To, cost: nc})
			} else if nc == d.dist[arc.To] && d.prevEdge[arc.To] >= 0 && int32(arc.Edge) < d.prevEdge[arc.To] {
				d.prevEdge[arc.To] = int32(arc.Edge)
			}
		}
	}
	if !found {
		return pathBuf, InfCost, false
	}

	total := d.dist[dst]
	start := len(pathBuf)
	for v := dst; v != src; {
		eid := d.prevEdge[v]
		pathBuf = append(pathBuf, int(eid))
		v = d.g.Edge(int(eid)).Other(v)
	}
	for i, j := start, len(pathBuf)-1; i < j; i, j = i+1, j-1 {
		pathBuf[i], pathBuf[j] = pathBuf[j], pathBuf[i]
	}
	return pathBuf, total, true
}

// checkAgainstReference drives the production engine and the reference loop
// over the same query and demands identical paths — not merely equal costs.
func checkAgainstReference(t *testing.T, label string, eng, ref *Dijkstra, src, dst int, costFn EdgeCostFunc) {
	t.Helper()
	gotPath, gotCost, gotOK := eng.ShortestPath(src, dst, costFn, nil)
	wantPath, wantCost, wantOK := referenceShortestPath(ref, src, dst, costFn, nil)
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
		costFn := func(e int) uint64 { return usage[e] }
		eng, ref := NewDijkstra(g), NewDijkstra(g)
		for q := 0; q < 60; q++ {
			checkAgainstReference(t, "radix", eng, ref, rng.Intn(n), rng.Intn(n), costFn)
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
		costFn := func(e int) uint64 { return usage[e] }
		eng, ref := NewDijkstra(g), NewDijkstra(g)
		for q := 0; q < 60; q++ {
			checkAgainstReference(t, "radix-2^40", eng, ref, rng.Intn(n), rng.Intn(n), costFn)
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
	costFn := func(e int) uint64 { return usage[e] }
	eng, ref := NewDijkstra(g), NewDijkstra(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(34))
	for q := 0; q < 200; q++ {
		checkAgainstReference(t, "radix", eng, ref, rng.Intn(n), rng.Intn(n), costFn)
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
	costFn := func(e int) uint64 { return usage[e] }
	t.Run("radix", func(t *testing.T) {
		d := NewDijkstra(g)
		buf := make([]int, 0, 256)
		dst := g.NumVertices() - 1
		// Warm-up queries grow the queue and touched list to steady state.
		for i := 0; i < 4; i++ {
			buf, _, _ = d.ShortestPath(0, dst, costFn, buf[:0])
		}
		allocs := testing.AllocsPerRun(50, func() {
			buf, _, _ = d.ShortestPath(0, dst, costFn, buf[:0])
		})
		if allocs != 0 {
			t.Fatalf("ShortestPath steady state allocates %v objects per run, want 0", allocs)
		}
	})
}
