package graph

// MehlhornSolver implements Mehlhorn's 2-approximation for the Steiner tree
// problem (Inf. Proc. Letters 1988) — the algorithm the paper's Sec. III-B
// cites for rerouting. Instead of KMB's k single-source searches it runs
// one multi-source search growing Voronoi regions around the terminals,
// bridges adjacent regions, and takes an MST of the bridged terminal graph.
//
// Like Dijkstra/SteinerCleaner it keeps reusable buffers and is not safe
// for concurrent use.
type MehlhornSolver struct {
	g       *Graph
	cleaner *SteinerCleaner

	dist     []Cost
	src      []int32 // terminal index owning the vertex's Voronoi region
	prevEdge []int32
	touched  []int
	heap     dijkstraHeap
	done     []bool
}

// Clone returns an independent solver bound to the same graph, for
// spawning one solver per worker goroutine.
func (m *MehlhornSolver) Clone() *MehlhornSolver { return NewMehlhornSolver(m.g) }

// NewMehlhornSolver returns a solver bound to g.
func NewMehlhornSolver(g *Graph) *MehlhornSolver {
	n := g.NumVertices()
	m := &MehlhornSolver{
		g:        g,
		cleaner:  NewSteinerCleaner(g),
		dist:     make([]Cost, n),
		src:      make([]int32, n),
		prevEdge: make([]int32, n),
		done:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		m.dist[i] = InfCost
		m.src[i] = -1
		m.prevEdge[i] = -1
	}
	return m
}

// SteinerTree returns the edges of a Steiner tree connecting terminals
// under the per-edge primary costs cost (one entry per edge, as for
// Dijkstra.ShortestPath), or ok=false if the terminals are not all
// reachable from one another. Terminals must be distinct. The result is
// cycle-free with no non-terminal leaves.
func (m *MehlhornSolver) SteinerTree(terminals []int, cost []uint64) (tree []int, ok bool) {
	if len(terminals) <= 1 {
		return nil, true
	}
	m.reset()

	// Multi-source search: every terminal seeds its own region.
	m.heap = m.heap[:0]
	for ti, v := range terminals {
		m.visit(v, Cost{}, -1, int32(ti))
		m.heap = append(m.heap, dijkstraItem{vertex: v})
	}
	m.heap.init()
	for len(m.heap) > 0 {
		it := m.heap.pop()
		u := it.vertex
		if m.done[u] {
			continue
		}
		m.done[u] = true
		du := m.dist[u]
		for _, arc := range m.g.Adj(u) {
			if m.done[arc.To] {
				continue
			}
			nc := du.Add(cost[arc.Edge])
			if nc.Less(m.dist[arc.To]) {
				m.visit(arc.To, nc, int32(arc.Edge), m.src[u])
				m.heap.push(dijkstraItem{vertex: arc.To, cost: nc})
			}
		}
	}

	// Bridge adjacent Voronoi regions: for every graph edge joining two
	// regions, a terminal-graph edge with the combined corridor cost.
	// Kruskal needs comparable scalar weights; fold the lexicographic
	// cost into a single int64 (primary dominates, hops break ties).
	bridges := make([]WeightedEdge, 0, m.g.NumEdges())
	for e, ed := range m.g.Edges() {
		su, sv := m.src[ed.U], m.src[ed.V]
		if su < 0 || sv < 0 || su == sv {
			continue
		}
		w := m.dist[ed.U].Add(cost[e])
		w.Primary = addPrimary(w.Primary, m.dist[ed.V].Primary)
		w.Hops += m.dist[ed.V].Hops
		bridges = append(bridges, WeightedEdge{
			U: int(su), V: int(sv), Weight: foldCost(w), Payload: e,
		})
	}
	mst := Kruskal(len(terminals), bridges)
	if len(mst) != len(terminals)-1 {
		return nil, false // regions not all connected
	}

	// Expand every bridge back to a corridor of graph edges: the bridging
	// edge plus the search-tree paths from both endpoints to their
	// terminals.
	var union []int
	for _, b := range mst {
		e := b.Payload
		union = append(union, e)
		ed := m.g.Edge(e)
		union = m.appendCorridor(union, ed.U)
		union = m.appendCorridor(union, ed.V)
	}
	return m.cleaner.Clean(union, terminals)
}

// appendCorridor walks prevEdge pointers from v to its region's terminal.
func (m *MehlhornSolver) appendCorridor(union []int, v int) []int {
	for {
		e := m.prevEdge[v]
		if e < 0 {
			return union
		}
		union = append(union, int(e))
		v = m.g.Edge(int(e)).Other(v)
	}
}

func (m *MehlhornSolver) visit(v int, c Cost, via, srcTerm int32) {
	if m.dist[v] == InfCost && !m.done[v] {
		m.touched = append(m.touched, v)
	}
	m.dist[v] = c
	m.prevEdge[v] = via
	m.src[v] = srcTerm
}

func (m *MehlhornSolver) reset() {
	for _, v := range m.touched {
		m.dist[v] = InfCost
		m.prevEdge[v] = -1
		m.src[v] = -1
		m.done[v] = false
	}
	m.touched = m.touched[:0]
}

// foldCost packs a lexicographic Cost into an int64 for Kruskal: the
// primary component dominates and hop counts break ties. Saturates rather
// than overflowing for pathological costs.
func foldCost(c Cost) int64 {
	const hopBits = 20 // supports corridors of up to ~1M hops
	if c.Primary >= 1<<42 {
		return 1<<62 - 1
	}
	return int64(c.Primary)<<hopBits | int64(c.Hops&(1<<hopBits-1))
}
