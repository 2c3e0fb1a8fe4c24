package graph

// Cost is the lexicographic path cost used by the congestion-aware searches
// of Sec. III: Primary accumulates the caller-defined edge cost (typically a
// usage count such as |N_e|), and Hops counts edges. Comparison is
// lexicographic, so among equally congested paths the shortest one wins —
// this realizes the paper's "edge cost = number of nets already routed"
// while keeping path selection deterministic when many edges are unused.
type Cost struct {
	Primary uint64
	Hops    uint32
}

// Dijkstra runs single-source shortest-path searches on one graph with
// caller-supplied per-edge primary costs. It owns reusable buffers so that a
// router issuing millions of searches does not re-allocate per call.
//
// The engine snapshots the graph's adjacency into an int32 CSR when it is
// built, so the graph must not be mutated afterwards (no caller does: an
// instance's FPGA graph is fixed once parsed). Path costs live in dist as
// the radix queue's packed keys, Primary<<hopBits | Hops, so a relaxation is
// one add and one compare, and its priority queue is the monotone radix
// queue (radixQueue), which avoids a binary heap's sift traffic on the
// integer-cost searches a router issues by the million.
//
// Not safe for concurrent use; create one instance per goroutine.
type Dijkstra struct {
	g        *Graph
	off      []int32 // CSR row offsets: u's arcs are arcs[off[u]:off[u+1]]
	arcs     []csrArc
	dist     []uint64 // packed path key, infKey while unreached
	prevEdge []int32  // edge used to reach a reached vertex; stale otherwise
	touched  []int32  // vertices whose dist entries are dirty
	radix    *radixQueue
}

// csrArc is an Arc narrowed to the engine's int32 vertex and edge ids.
type csrArc struct {
	to, edge int32
}

// infKey marks an unreached vertex. No path key reaches it: a recorded path
// is simple, so its Hops field stays below n < 2^hopBits.
const infKey = ^uint64(0)

// Clone returns an independent search engine bound to the same graph, for
// spawning one solver per worker goroutine.
func (d *Dijkstra) Clone() *Dijkstra { return NewDijkstra(d.g) }

// NewDijkstra returns a search engine bound to g, which must not be mutated
// for the engine's lifetime.
func NewDijkstra(g *Graph) *Dijkstra {
	n := g.NumVertices()
	d := &Dijkstra{
		g:        g,
		off:      make([]int32, n+1),
		arcs:     make([]csrArc, 0, 2*g.NumEdges()),
		dist:     make([]uint64, n),
		prevEdge: make([]int32, n),
		radix:    newRadixQueue(n),
	}
	for u := 0; u < n; u++ {
		d.dist[u] = infKey
		for _, a := range g.Adj(u) {
			d.arcs = append(d.arcs, csrArc{to: int32(a.To), edge: int32(a.Edge)})
		}
		d.off[u+1] = int32(len(d.arcs))
	}
	return d
}

// ShortestPath finds a minimum-cost path from src to dst, where traversing
// edge e costs (cost[e], 1) under the lexicographic order of Cost, and
// appends its edge identifiers, in src→dst order, to pathBuf. It returns the
// extended slice and whether dst was reachable. A src==dst query returns an
// empty path. cost must have an entry for every edge; the search only reads
// it. A path whose Primary cost leaves the packed key's range panics rather
// than wrapping into a wrong order.
//
// Equal-cost path ties resolve canonically: when a relaxation reaches a
// vertex at exactly its current best cost, the incoming edge with the
// smaller id wins. The predecessor of every vertex on the returned path is
// therefore the minimum-id edge over all optimal predecessors — a pure
// function of (graph, cost, src, dst) — rather than an accident of which
// tied queue item happened to pop first. That is what licenses the radix
// queue (whose order among equal keys is unspecified) and the target pruning
// below without changing a single output byte.
func (d *Dijkstra) ShortestPath(src, dst int, cost []uint64, pathBuf []int) ([]int, bool) {
	if src == dst {
		return pathBuf, true
	}
	d.reset()
	d.dist[src] = 0
	d.prevEdge[src] = -1
	d.touched = append(d.touched, int32(src))

	if !d.run(int32(src), int32(dst), cost) {
		return pathBuf, false
	}

	// Reconstruct backwards, then reverse in place.
	start := len(pathBuf)
	for v := dst; v != src; {
		eid := int(d.prevEdge[v])
		pathBuf = append(pathBuf, eid)
		v = d.g.Edge(eid).Other(v)
	}
	for i, j := start, len(pathBuf)-1; i < j; i, j = i+1, j-1 {
		pathBuf[i], pathBuf[j] = pathBuf[j], pathBuf[i]
	}
	return pathBuf, true
}

// run is the search loop: it settles vertices in non-decreasing key order
// until dst is settled (true) or the queue empties (false).
//
// It keeps no settled set. A vertex is pushed only when its key strictly
// drops, so the one queue entry whose key still equals dist[u] is the
// latest, and every other entry is stale. And a settled vertex v can be
// neither improved nor tied by a later relaxation: the relaxing vertex u
// pops after v, so dist[u] >= dist[v], and every edge adds at least one hop,
// so the candidate key exceeds dist[v].
func (d *Dijkstra) run(src, dst int32, cost []uint64) bool {
	q := d.radix
	q.reset()
	q.push(q.pack(Cost{}), src)
	hopBits, maxPri := q.hopBits, q.maxPri
	dist, prevEdge, off, arcs := d.dist, d.prevEdge, d.off, d.arcs
	for q.len > 0 {
		it := q.pop()
		u, du := it.vertex, it.key
		if du != dist[u] {
			continue // stale: u was improved after this entry was pushed
		}
		if u == dst {
			return true
		}
		// Target pruning. Once dst has been reached, a settled vertex whose
		// key is not below dist[dst] cannot begin a cheaper path to dst
		// (every edge adds a hop), so its adjacency scan is skipped;
		// likewise an individual candidate at or above the bound is neither
		// recorded nor pushed. Pruned vertices all cost at least dist[dst],
		// and no such vertex can appear on the reconstructed path or supply
		// an equal-cost predecessor to one that does, so pruning is
		// byte-identical to exhaustive relaxation — the canonical tie rule
		// carries the argument, where pop order among equals could not.
		// While dst is unreached the bound is infKey, above every key.
		bound := dist[dst]
		if du >= bound {
			continue
		}
		// room is the Primary headroom left above u's path: an edge costing
		// more would carry the sum out of the packed key's Primary field.
		room := maxPri - du>>hopBits
		for _, a := range arcs[off[u]:off[u+1]] {
			c := cost[a.edge]
			if c > room {
				panic(errKeyOverflow)
			}
			nc := du + (c<<hopBits | 1)
			to := a.to
			if nc < dist[to] {
				if to != dst && nc >= bound {
					continue
				}
				if dist[to] == infKey {
					d.touched = append(d.touched, to)
				}
				dist[to] = nc
				prevEdge[to] = a.edge
				q.push(nc, to)
			} else if nc == dist[to] && a.edge < prevEdge[to] {
				prevEdge[to] = a.edge
			}
		}
	}
	return false
}

// reset forgets the previous search. prevEdge needs no reset: it is read
// only for vertices the current search has reached, and reaching a vertex
// writes it.
func (d *Dijkstra) reset() {
	for _, v := range d.touched {
		d.dist[v] = infKey
	}
	d.touched = d.touched[:0]
}
