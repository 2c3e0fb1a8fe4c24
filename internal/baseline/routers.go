// Package baseline provides the comparison flows used by the Table II
// experiment. The paper compares against the binaries of the ICCAD 2019 CAD
// Contest top-3 winners, which are not available; this package substitutes
// three self-contained flows of graded quality (see DESIGN.md §2):
//
//   - "1st"-style: fastest and crudest — shortest-path routing in netlist
//     order (congestion seen only via already-routed nets), uniform |N_e|
//     TDM ratios.
//   - "2nd"-style: congestion-aware routing plus a criticality-proportional
//     TDM heuristic.
//   - "3rd"-style: PathFinder-lite iterative routing (history + present
//     congestion negotiation) plus the proportional TDM heuristic — the best
//     topology of the three, at the highest routing cost.
//
// All three produce legal solutions; none runs the paper's LR/refinement, so
// a ModeAssignOnly tdmroute.Run on their topologies reproduces the "+TA"
// rows.
package baseline

import (
	"cmp"
	"fmt"
	"slices"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// kmbRouter embeds each net's terminal MST as shortest paths under a
// caller-chosen edge cost, sharing the machinery between the three baseline
// routers.
type kmbRouter struct {
	in      *problem.Instance
	apsp    *graph.APSP
	dij     *graph.Dijkstra
	cleaner *graph.SteinerCleaner

	usage   []uint32 // nets currently routed per edge
	history []uint32 // PathFinder history cost
	costs   []uint64 // search cost of the net being routed
}

func newKMBRouter(in *problem.Instance) *kmbRouter {
	return &kmbRouter{
		in:      in,
		apsp:    graph.NewAPSP(in.G),
		dij:     graph.NewDijkstra(in.G),
		cleaner: graph.NewSteinerCleaner(in.G),
		usage:   make([]uint32, in.G.NumEdges()),
		history: make([]uint32, in.G.NumEdges()),
		costs:   make([]uint64, in.G.NumEdges()),
	}
}

// routeNet embeds net n with edge e costing edgeCost(e), except that the
// net's own edges are free once a path has claimed them, and returns its
// Steiner tree without touching usage counters.
func (r *kmbRouter) routeNet(n int, edgeCost func(e int) uint64) ([]int, error) {
	terms := r.in.Nets[n].Terminals
	if len(terms) <= 1 {
		return nil, nil
	}
	for e := range r.costs {
		r.costs[e] = edgeCost(e)
	}
	k := len(terms)
	edges := make([]graph.WeightedEdge, 0, k*(k-1)/2)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := r.apsp.Dist(terms[i], terms[j])
			if d == graph.Unreachable {
				return nil, fmt.Errorf("baseline: net %d: disconnected terminals", n)
			}
			edges = append(edges, graph.WeightedEdge{U: i, V: j, Weight: int64(d)})
		}
	}
	mst := graph.Kruskal(k, edges)

	var union []int
	for _, me := range mst {
		start := len(union)
		var ok bool
		union, ok = r.dij.ShortestPath(terms[me.U], terms[me.V], r.costs, union)
		if !ok {
			return nil, fmt.Errorf("baseline: net %d: no path", n)
		}
		for _, e := range union[start:] {
			r.costs[e] = 0
		}
	}
	tree, ok := r.cleaner.Clean(union, terms)
	if !ok {
		return nil, fmt.Errorf("baseline: net %d: disconnected union", n)
	}
	return tree, nil
}

// RouteShortestPath is the "1st"-style router: nets in netlist order, edge
// cost = nets already routed (the crudest congestion signal), no rip-up, no
// NetGroup awareness.
func RouteShortestPath(in *problem.Instance) (problem.Routing, error) {
	r := newKMBRouter(in)
	costFn := func(e int) uint64 { return uint64(r.usage[e]) }
	routes := make(problem.Routing, len(in.Nets))
	for n := range in.Nets {
		tree, err := r.routeNet(n, costFn)
		if err != nil {
			return nil, err
		}
		routes[n] = tree
		for _, e := range tree {
			r.usage[e]++
		}
	}
	return routes, nil
}

// RouteCongestion is the "2nd"-style router: like RouteShortestPath but
// nets are ordered by decreasing terminal spread (larger nets first, so
// small nets fill the gaps) and the congestion cost is squared, spreading
// load harder.
func RouteCongestion(in *problem.Instance) (problem.Routing, error) {
	r := newKMBRouter(in)
	costFn := func(e int) uint64 {
		u := uint64(r.usage[e])
		return u * u
	}
	order := netsBySpread(in, r.apsp)
	routes := make(problem.Routing, len(in.Nets))
	for _, n := range order {
		tree, err := r.routeNet(n, costFn)
		if err != nil {
			return nil, err
		}
		routes[n] = tree
		for _, e := range tree {
			r.usage[e]++
		}
	}
	return routes, nil
}

// PathFinderIterations is the negotiation round count of RoutePathFinder.
const PathFinderIterations = 4

// RoutePathFinder is the "3rd"-style router: PathFinder-lite negotiated
// congestion. Every iteration reroutes all nets with edge cost
// (1 + history) · (1 + present), then adds the over-use of each edge to its
// history; later iterations therefore avoid historically contended edges.
func RoutePathFinder(in *problem.Instance) (problem.Routing, error) {
	r := newKMBRouter(in)
	routes := make(problem.Routing, len(in.Nets))
	costFn := func(e int) uint64 {
		//lint:ignore satarith usage <= |nets| and history <= PathFinderIterations*|nets|, so the biased product stays far below 2^64 for any instance that fits in memory
		return (1 + uint64(r.history[e])) * (1 + uint64(r.usage[e]))
	}
	for iter := 0; iter < PathFinderIterations; iter++ {
		for n := range in.Nets {
			// Rip up the previous route of n (absent in iteration 0).
			for _, e := range routes[n] {
				r.usage[e]--
			}
			tree, err := r.routeNet(n, costFn)
			if err != nil {
				return nil, err
			}
			routes[n] = tree
			for _, e := range tree {
				r.usage[e]++
			}
		}
		// Accumulate history on contended edges.
		for e := range r.history {
			if r.usage[e] > 1 {
				//lint:ignore satarith bounded accumulation: at most PathFinderIterations additions of usage-1 <= |nets|, far below 2^32
				r.history[e] += r.usage[e] - 1
			}
		}
	}
	return routes, nil
}

// netsBySpread orders nets by decreasing total pairwise terminal distance.
func netsBySpread(in *problem.Instance, apsp *graph.APSP) []int {
	spread := make([]int64, len(in.Nets))
	for n := range in.Nets {
		terms := in.Nets[n].Terminals
		for i := 0; i < len(terms); i++ {
			for j := i + 1; j < len(terms); j++ {
				if d := apsp.Dist(terms[i], terms[j]); d != graph.Unreachable {
					spread[n] += int64(d)
				}
			}
		}
	}
	order := make([]int, len(in.Nets))
	for i := range order {
		order[i] = i
	}
	// Stable sort by decreasing spread: equal spreads keep netlist order.
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(spread[b], spread[a]) })
	return order
}
