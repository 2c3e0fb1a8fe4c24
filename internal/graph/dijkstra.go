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

// Less reports whether c is strictly cheaper than d.
func (c Cost) Less(d Cost) bool {
	if c.Primary != d.Primary {
		return c.Primary < d.Primary
	}
	return c.Hops < d.Hops
}

// Add returns the cost of extending a path of cost c by one edge of the
// given primary cost.
func (c Cost) Add(edgePrimary uint64) Cost {
	return Cost{Primary: c.Primary + edgePrimary, Hops: c.Hops + 1}
}

// InfCost is larger than any reachable path cost.
var InfCost = Cost{Primary: ^uint64(0), Hops: ^uint32(0)}

type dijkstraItem struct {
	vertex int
	cost   Cost
}

// dijkstraHeap is a hand-rolled typed binary min-heap for the multi-source
// searches of MehlhornSolver. container/heap would box every dijkstraItem
// into an interface{}, and that allocation dominates a router issuing
// hundreds of thousands of searches.
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
	s = s[:last]
	*h = s
	i := 0
	for {
		l, rgt := 2*i+1, 2*i+2
		smallest := i
		if l < last && s[l].cost.Less(s[smallest].cost) {
			smallest = l
		}
		if rgt < last && s[rgt].cost.Less(s[smallest].cost) {
			smallest = rgt
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// init re-establishes the heap property over arbitrary contents.
func (h dijkstraHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
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

// Dijkstra runs single-source shortest-path searches on one graph with
// caller-supplied per-edge primary costs. It owns reusable buffers so that a
// router issuing millions of searches does not re-allocate per call.
//
// Its priority queue is the monotone radix queue (radixQueue), which avoids
// a binary heap's sift traffic on the integer-cost searches a router issues
// by the million.
//
// Not safe for concurrent use; create one instance per goroutine.
type Dijkstra struct {
	g        *Graph
	dist     []Cost
	prevEdge []int32 // edge used to reach vertex, -1 at source/unreached
	touched  []int   // vertices whose dist/prevEdge entries are dirty
	radix    *radixQueue
	done     []bool
}

// Clone returns an independent search engine bound to the same graph, for
// spawning one solver per worker goroutine.
func (d *Dijkstra) Clone() *Dijkstra { return NewDijkstra(d.g) }

// NewDijkstra returns a search engine bound to g.
func NewDijkstra(g *Graph) *Dijkstra {
	n := g.NumVertices()
	d := &Dijkstra{
		g:        g,
		dist:     make([]Cost, n),
		prevEdge: make([]int32, n),
		radix:    newRadixQueue(n),
		done:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		d.dist[i] = InfCost
		d.prevEdge[i] = -1
	}
	return d
}

// EdgeCostFunc returns the primary cost of traversing edge id.
type EdgeCostFunc func(edge int) uint64

// ShortestPath finds a minimum-cost path from src to dst under costFn and
// appends its edge identifiers, in src→dst order, to pathBuf. It returns the
// extended slice, the path cost, and whether dst was reachable. A src==dst
// query returns an empty path with zero cost.
//
// Equal-cost path ties resolve canonically: when a relaxation reaches a
// vertex at exactly its current best cost, the incoming edge with the
// smaller id wins. The predecessor of every vertex on the returned path is
// therefore the minimum-id edge over all optimal predecessors — a pure
// function of (graph, costFn, src, dst) — rather than an accident of which
// tied queue item happened to pop first. That is what licenses the radix
// queue (whose order among equal keys is unspecified) and the target pruning
// below without changing a single output byte.
func (d *Dijkstra) ShortestPath(src, dst int, costFn EdgeCostFunc, pathBuf []int) ([]int, Cost, bool) {
	if src == dst {
		return pathBuf, Cost{}, true
	}
	d.reset()
	d.visit(src, Cost{}, -1)

	if !d.run(src, dst, costFn) {
		return pathBuf, InfCost, false
	}

	total := d.dist[dst]
	// Reconstruct backwards, then reverse in place.
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

// run is the search loop: it settles vertices in non-decreasing cost order
// until dst is settled (true) or the queue empties (false).
func (d *Dijkstra) run(src, dst int, costFn EdgeCostFunc) bool {
	q := d.radix
	q.reset()
	q.push(q.pack(Cost{}), int32(src))
	for q.len > 0 {
		it := q.pop()
		u := int(it.vertex)
		if d.done[u] {
			continue
		}
		d.done[u] = true
		if u == dst {
			return true
		}
		du := d.dist[u]
		bound := d.dist[dst]
		// Target pruning. Once dst has been reached, a settled vertex whose
		// cost is not below dist[dst] cannot begin a cheaper path to dst
		// (Cost.Add strictly increases), so its adjacency scan is skipped;
		// likewise an individual candidate at or above the bound is neither
		// recorded nor pushed. Pruned vertices all cost at least dist[dst],
		// and no such vertex can appear on the reconstructed path or supply
		// an equal-cost predecessor to one that does, so pruning is
		// byte-identical to exhaustive relaxation — the canonical tie rule
		// carries the argument, where pop order among equals could not.
		if bound != InfCost && !du.Less(bound) {
			continue
		}
		for _, arc := range d.g.Adj(u) {
			to := arc.To
			if d.done[to] {
				continue
			}
			nc := du.Add(costFn(arc.Edge))
			if nc.Less(d.dist[to]) {
				if to != dst && bound != InfCost && !nc.Less(bound) {
					continue
				}
				d.visit(to, nc, int32(arc.Edge))
				q.push(q.pack(nc), int32(to))
			} else if nc == d.dist[to] && d.prevEdge[to] >= 0 && int32(arc.Edge) < d.prevEdge[to] {
				d.prevEdge[to] = int32(arc.Edge)
			}
		}
	}
	return false
}

func (d *Dijkstra) visit(v int, c Cost, via int32) {
	if d.dist[v] == InfCost && !d.done[v] {
		d.touched = append(d.touched, v)
	}
	d.dist[v] = c
	d.prevEdge[v] = via
}

func (d *Dijkstra) reset() {
	for _, v := range d.touched {
		d.dist[v] = InfCost
		d.prevEdge[v] = -1
		d.done[v] = false
	}
	d.touched = d.touched[:0]
}
