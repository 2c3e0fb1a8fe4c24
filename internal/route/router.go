// Package route implements the NetGroup-aware inter-FPGA routing stage of
// Sec. III of the paper: KMB-style initial Steiner routing with the θ(n) net
// ordering of Eq. (1), congestion-aware shortest paths, and the φ(g)-driven
// rip-up-and-reroute refinement of Sec. III-B. Reroutes use KMB too, where
// the paper cites Mehlhorn's construction (DESIGN.md, S13).
package route

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"tdmroute/internal/graph"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// NetOrder selects the order in which nets are routed initially.
type NetOrder int

const (
	// OrderThetaAsc routes nets by increasing criticality θ(n) (Eq. 1) —
	// the paper's ordering: critical nets route last and see the most
	// congestion information.
	OrderThetaAsc NetOrder = iota
	// OrderNetID routes in netlist order (ablation baseline).
	OrderNetID
)

// Options tunes the router. The zero value selects the paper's defaults.
type Options struct {
	// RipUpRounds is the number of rip-up-and-reroute rounds. Each round
	// rips the NetGroup with the largest congestion estimate φ(g) and
	// reroutes its nets; a round that does not lower max φ is reverted and
	// ends the rip-up. Negative disables rip-up; zero selects the default.
	RipUpRounds int
	// Order selects the initial net ordering (paper: OrderThetaAsc).
	Order NetOrder
	// Workers is the most goroutines the routing hot loops (terminal-MST
	// construction, wave-parallel net embedding, and the ψ/φ(g) congestion
	// sweeps) run on; <= 1 runs them on the caller. The θ-ordered net
	// sequence is always routed in waves of up to waveSize nets, their
	// length set by the net count (waveLen): every net of a wave is
	// embedded against a frozen usage snapshot, then the wave's trees are
	// merged into the shared usage in wave order (ParaLarH-style
	// speculative routing). Whether a loop's chunks actually fork is
	// decided by its estimated work (see package par). The routing is
	// identical for every Workers value: it only schedules fixed work.
	Workers int
	// Partitions > 1 routes the initial net ordering through that many
	// spatially partitioned regions instead of waves: region-local nets
	// (all terminals inside one region) are routed per region against
	// region-private congestion, regions run concurrently, and boundary
	// nets plus any local net whose tree escaped its home region are
	// rerouted sequentially against the merged congestion. As with waves,
	// the result is identical for every Workers value. 0 and 1 disable
	// partitioning (partitioned routing is opt-in because it routes
	// differently from the waves).
	Partitions int
}

// DefaultRipUpRounds is used when Options.RipUpRounds == 0.
const DefaultRipUpRounds = 5

func (o Options) ripUpRounds() int {
	switch {
	case o.RipUpRounds < 0:
		return 0
	case o.RipUpRounds == 0:
		return DefaultRipUpRounds
	default:
		return o.RipUpRounds
	}
}

// workers normalizes Options.Workers to at least 1.
func (o Options) workers() int {
	if o.Workers <= 1 {
		return 1
	}
	return o.Workers
}

// partitions normalizes Options.Partitions to at least 1.
func (o Options) partitions() int {
	if o.Partitions <= 1 {
		return 1
	}
	return o.Partitions
}

// Stats reports what the router did, for logging and the Fig. 3(a) runtime
// breakdown.
type Stats struct {
	RoutedNets    int
	RipUpRounds   int // rounds executed
	RevertedRound int // rounds whose result was reverted
	RippedNets    int // total nets ripped and rerouted
}

// treeArenaChunk caps the arena chunks backing route trees. Trees are a few
// edges each on FPGA-sized graphs, so one full chunk serves thousands of
// nets.
const treeArenaChunk = 1 << 14

// treeArenaMin is the size of a worker's first arena chunk. Chunks double
// from it up to treeArenaChunk, so a small solve zeroes a few KiB per worker
// instead of a full chunk.
const treeArenaMin = 1 << 9

// treeArena slab-allocates the per-net route-tree edge lists. Trees are
// immutable once created (the Session.Routes contract), so they can share
// backing storage: instead of one garbage-collected allocation per net, the
// arena carves trees out of chunks that grow geometrically to
// treeArenaChunk. Chunks are never recycled — routes referencing them keep
// them alive — so the arena only amortizes allocation count, which is
// exactly what matters at millions of nets.
type treeArena struct {
	chunk []int
	used  int
}

// alloc returns a zero-length slice with at least n spare capacity carved
// from the current chunk, starting a fresh, larger chunk when needed.
func (a *treeArena) alloc(n int) []int {
	if len(a.chunk)-a.used < n {
		size := min(max(2*len(a.chunk), treeArenaMin), treeArenaChunk)
		a.chunk = make([]int, max(size, n))
		a.used = 0
	}
	return a.chunk[a.used:a.used]
}

// commit marks the appended-to slice s as permanently owned and returns it
// with its capacity clamped, so appends through a stale reference can never
// overwrite a neighbouring tree.
func (a *treeArena) commit(s []int) []int {
	a.used += len(s)
	return s[:len(s):len(s)]
}

// netWorker bundles the per-goroutine search state of one routing worker:
// the path and Steiner solvers plus the per-edge cost slice they search
// under. None of it is shared, so distinct workers may embed distinct nets
// concurrently as long as the base usage array is not mutated meanwhile.
type netWorker struct {
	dij     *graph.Dijkstra
	cleaner *graph.SteinerCleaner

	// costs is the search cost of a multi-search net from its second
	// search on: the frozen base congestion, with the net's own edges zeroed
	// as its paths are found so that reusing them costs no congestion. A
	// net's first search reads the base array itself.
	costs []uint64
	// unionBuf is the reusable path-union scratch of computeTree.
	unionBuf []int
	// arena backs the route trees this worker produces.
	arena treeArena
}

func newNetWorker(g *graph.Graph) *netWorker {
	return &netWorker{
		dij:     graph.NewDijkstra(g),
		cleaner: graph.NewSteinerCleaner(g),
		costs:   make([]uint64, g.NumEdges()),
	}
}

// clone returns an independent worker over the same graph.
func (w *netWorker) clone() *netWorker {
	return &netWorker{
		dij:     w.dij.Clone(),
		cleaner: w.cleaner.Clone(),
		costs:   make([]uint64, len(w.costs)),
	}
}

type router struct {
	in   *problem.Instance
	opt  Options
	apsp *graph.APSP
	w0   *netWorker // worker used by the sequential paths

	routes  problem.Routing
	usage   []uint64 // nets currently routed on each edge (|N_e|)
	mstCost []int64  // per net: cost of its terminal MST on the distance LUT

	// mst memoizes each net's terminal MST. The tree is a pure function of
	// the immutable APSP LUT and the net's terminal list, so it is computed
	// once per session and reused by every rip-up and feedback round.
	// Cached trees are read-only.
	mst     [][]graph.WeightedEdge
	mstDone []bool
	// mstSlab backs the memoized trees: net n's k-1 edges live in the slot
	// [mstOff[n], mstOff[n+1]). Slots are disjoint, so concurrent MST
	// construction of distinct nets writes without contention or per-net
	// allocation. Nets appended by Grow fall outside the slab and allocate
	// individually.
	mstSlab []graph.WeightedEdge
	mstOff  []int
	// msc is the Kruskal/pair scratch of the sequential MST callers; the
	// parallel buildMSTs pass uses one private scratch per chunk instead.
	msc mstScratch

	// cong is the incremental ψ/φ congestion index driving rip-up rounds.
	// It is built lazily on the first round and dropped when routing
	// finishes, so post-routing reroutes don't pay incidence maintenance.
	cong *congIndex

	stats Stats
}

func newRouter(in *problem.Instance, opt Options) *router {
	mstOff := make([]int, len(in.Nets)+1)
	for n := range in.Nets {
		slot := len(in.Nets[n].Terminals) - 1
		if slot < 0 {
			slot = 0
		}
		//lint:ignore satarith prefix sum of (terminals-1) per net, bounded by the instance's total terminal count, which a parser-accepted instance keeps far below MaxInt
		mstOff[n+1] = mstOff[n] + slot
	}
	return &router{
		in:      in,
		opt:     opt,
		apsp:    graph.NewAPSP(in.G),
		w0:      newNetWorker(in.G),
		routes:  make(problem.Routing, len(in.Nets)),
		usage:   make([]uint64, in.G.NumEdges()),
		mstCost: make([]int64, len(in.Nets)),
		mst:     make([][]graph.WeightedEdge, len(in.Nets)),
		mstDone: make([]bool, len(in.Nets)),
		mstSlab: make([]graph.WeightedEdge, mstOff[len(in.Nets)]),
		mstOff:  mstOff,
	}
}

// mstScratch is the reusable per-caller state of computeTerminalMST: the
// candidate pair edges of the terminal complete graph and the Kruskal
// buffers.
type mstScratch struct {
	pairs []graph.WeightedEdge
	kr    graph.KruskalScratch
}

// mstSlot returns the zero-length slab slot reserved for net n's MST, or nil
// for nets outside the slab (appended by Grow), which then allocate
// individually. The slot capacity is clamped so an overlong append could
// never spill into a neighbouring net's slot.
func (r *router) mstSlot(n int) []graph.WeightedEdge {
	if n+1 >= len(r.mstOff) {
		return nil
	}
	off, end := r.mstOff[n], r.mstOff[n+1]
	return r.mstSlab[off:off:end]
}

// terminalMST returns the memoized KMB first step for net n, computing it on
// first use with the sequential scratch. Concurrent callers must go through
// terminalMSTScratch with private scratch instead.
func (r *router) terminalMST(n int) ([]graph.WeightedEdge, error) {
	return r.terminalMSTScratch(n, &r.msc)
}

// terminalMSTScratch is terminalMST with caller-supplied scratch. Distinct
// nets may be processed concurrently: the cache slots and slab slots are
// written per index and the underlying computation reads only the APSP LUT
// and the instance.
func (r *router) terminalMSTScratch(n int, sc *mstScratch) ([]graph.WeightedEdge, error) {
	if r.mstDone[n] {
		return r.mst[n], nil
	}
	mst, err := r.computeTerminalMST(n, sc)
	if err != nil {
		return nil, err
	}
	r.mst[n] = mst
	r.mstDone[n] = true
	return mst, nil
}

// computeTerminalMST computes the MST of the complete graph over net n's
// terminals under LUT distances. It returns the tree as terminal-index pairs
// into the net's terminal slice, stored in the net's slab slot.
func (r *router) computeTerminalMST(n int, sc *mstScratch) ([]graph.WeightedEdge, error) {
	terms := r.in.Nets[n].Terminals
	k := len(terms)
	if k <= 1 {
		return nil, nil
	}
	slot := r.mstSlot(n)
	if k == 2 {
		// Fast path for the dominant 2-pin case: the MST is the pair.
		d := r.apsp.Dist(terms[0], terms[1])
		if d == graph.Unreachable {
			return nil, fmt.Errorf("route: net %d: terminals %d and %d are disconnected", n, terms[0], terms[1])
		}
		return append(slot, graph.WeightedEdge{U: 0, V: 1, Weight: int64(d)}), nil
	}
	pairs := sc.pairs[:0]
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			d := r.apsp.Dist(terms[i], terms[j])
			if d == graph.Unreachable {
				return nil, fmt.Errorf("route: net %d: terminals %d and %d are disconnected", n, terms[i], terms[j])
			}
			pairs = append(pairs, graph.WeightedEdge{U: i, V: j, Weight: int64(d)})
		}
	}
	sc.pairs = pairs
	return sc.kr.MSTAppend(slot, k, pairs), nil
}

// sortByTheta orders net ids by increasing θ, equal θ by increasing id.
// order starts in ascending ids, so this is the stable sort by θ alone,
// without the stable sort's cost.
func sortByTheta(order []int, theta []int64) {
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(theta[a], theta[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// initialRoute performs Sec. III-A: compute every net's terminal MST, order
// nets by increasing θ(n), and embed each MST edge as a congestion-aware
// shortest path. Cancellation before the last net is embedded returns the
// context error: a partial initial routing is not a legal topology.
func (r *router) initialRoute(ctx context.Context) error {
	nets := r.in.Nets
	if err := r.buildMSTs(ctx); err != nil {
		return err
	}

	// θ(n) = max over groups containing n of the group's summed MST cost.
	groupCost := make([]int64, len(r.in.Groups))
	for gi := range r.in.Groups {
		var sum int64
		for _, n := range r.in.Groups[gi].Nets {
			sum = problem.SatAdd64(sum, r.mstCost[n])
		}
		groupCost[gi] = sum
	}
	theta := make([]int64, len(nets))
	for n := range nets {
		for _, gi := range nets[n].Groups {
			if groupCost[gi] > theta[n] {
				theta[n] = groupCost[gi]
			}
		}
	}

	order := make([]int, len(nets))
	for i := range order {
		order[i] = i
	}
	switch r.opt.Order {
	case OrderThetaAsc:
		sortByTheta(order, theta)
	case OrderNetID:
		// netlist order as initialized
	}

	if r.opt.partitions() > 1 {
		return r.routePartitioned(ctx, order)
	}
	return r.routeWaves(ctx, order)
}

// embed computes net n's tree with the sequential worker against base and
// commits it to the shared routing state.
func (r *router) embed(n int, mst []graph.WeightedEdge, base []uint64) error {
	tree, err := r.computeTree(r.w0, n, mst, base)
	if err != nil {
		return err
	}
	r.commit(n, tree)
	return nil
}

// commit stores net n's tree and adds it to the shared edge usage.
func (r *router) commit(n int, tree []int) {
	r.routes[n] = tree
	for _, e := range tree {
		r.usage[e]++
	}
}

// computeTree computes net n's Steiner tree under the base edge congestion
// using w's private scratch. It only reads base: a net's first search runs
// on base itself, and only from its second MST edge on is base copied into
// w.costs, with the net's edges found so far zeroed. It does not touch
// shared router state, so distinct workers may compute trees concurrently
// as long as base is not mutated meanwhile.
func (r *router) computeTree(w *netWorker, n int, mst []graph.WeightedEdge, base []uint64) ([]int, error) {
	terms := r.in.Nets[n].Terminals
	if len(terms) <= 1 {
		return nil, nil
	}
	// KMB: replace each MST edge by a shortest path under the congestion
	// cost (the net's own edges free to encourage Steiner sharing), then
	// clean the union into a tree.
	union := w.unionBuf[:0]
	costs := base
	free := 0 // union[free:] holds path edges not yet zeroed in costs
	for i, me := range mst {
		if i > 0 {
			// Only from the second search on are some of the net's own
			// edges known, so only then does it need a private copy.
			if i == 1 {
				costs = w.costs
				copy(costs, base)
			}
			for _, e := range union[free:] {
				costs[e] = 0
			}
			free = len(union)
		}
		var ok bool
		union, ok = w.dij.ShortestPath(terms[me.U], terms[me.V], costs, union)
		if !ok {
			return nil, fmt.Errorf("route: net %d: no path between terminals %d and %d", n, terms[me.U], terms[me.V])
		}
	}
	w.unionBuf = union
	// The tree has at most len(union) edges, so an arena slot of that
	// capacity is never reallocated.
	dst := w.arena.alloc(len(union))
	if len(terms) == 2 {
		// A 2-pin net's MST is the single pair (0, 1), so the union is one
		// simple terms[0]→terms[1] path. The cleaner's BFS from terms[0]
		// over exactly those edges would emit them unchanged and in path
		// order, and trim nothing: the path is the tree.
		return w.arena.commit(append(dst, union...)), nil
	}
	tree, ok := w.cleaner.CleanAppend(dst, union, terms)
	if !ok {
		return nil, fmt.Errorf("route: net %d: path union does not connect terminals", n)
	}
	return w.arena.commit(tree), nil
}

// psi computes ψ(n) of Eq. (2): the sum over the net's routed edges of the
// number of nets on each edge.
func (r *router) psi(n int) int64 {
	var sum int64
	for _, e := range r.routes[n] {
		sum = problem.SatAdd64(sum, int64(r.usage[e]))
	}
	return sum
}

// sweepWork estimates the element visits of the ψ and φ(g) sweeps: every
// routed edge of every net (Σ_e |N_e|), and every net of every group. Both
// are passes of counter and length reads, cheaper than the sweeps.
func (r *router) sweepWork() (psiWork, phiWork int) {
	for _, u := range r.usage {
		//lint:ignore satarith a count of routed edges, bounded by the routing's total length, which fits in memory and so far below MaxInt
		psiWork += int(u)
	}
	for _, g := range r.in.Groups {
		//lint:ignore satarith a count of group memberships, bounded by the instance's size in memory
		phiWork += len(g.Nets)
	}
	return psiWork, phiWork
}

// phiAll computes φ(g) of Eq. (2) for every group. Both sweeps are integer
// reductions over disjoint indices, so the parallel result is identical to
// the sequential one for every worker count.
func (r *router) phiAll() []int64 {
	workers := r.opt.workers()
	psiWork, phiWork := r.sweepWork()
	psi := make([]int64, len(r.in.Nets))
	par.For(len(psi), workers, psiWork, func(_, start, end int) {
		for n := start; n < end; n++ {
			psi[n] = r.psi(n)
		}
	})
	phi := make([]int64, len(r.in.Groups))
	par.For(len(phi), workers, phiWork, func(_, start, end int) {
		for gi := start; gi < end; gi++ {
			var sum int64
			for _, n := range r.in.Groups[gi].Nets {
				sum = problem.SatAdd64(sum, psi[n])
			}
			phi[gi] = sum
		}
	})
	return phi
}

// ripUpWorstGroup performs one Sec. III-B round: rip every net of the group
// with the largest φ(g) and reroute them with edge costs counting only the
// ripped group's own nets. The round is reverted when it fails to reduce
// max φ, and improved=false is returned. A context
// cancellation observed mid-round reverts the partial round the same way
// and reports improved=false with a nil error: the router's topology stays
// legal and the caller's round loop stops on its own ctx check.
func (r *router) ripUpWorstGroup(ctx context.Context) (improved bool, err error) {
	if len(r.in.Groups) == 0 {
		return false, nil
	}
	if r.cong == nil {
		r.cong = newCongIndex(r)
	}
	phi := r.cong.phi
	gmax, best := 0, phi[0]
	for gi, v := range phi {
		if v > best {
			gmax, best = gi, v
		}
	}
	members := r.in.Groups[gmax].Nets

	// Snapshot the members' routes for possible revert.
	saved := make([][]int, len(members))
	for i, n := range members {
		saved[i] = r.routes[n]
	}

	// Rip up.
	groupUsage := make([]uint64, r.in.G.NumEdges())
	for _, n := range members {
		for _, e := range r.routes[n] {
			r.usage[e]--
		}
		r.routes[n] = nil
	}

	for _, n := range members {
		if ctx.Err() != nil {
			r.revertGroup(members, saved)
			return false, nil
		}
		mst, err := r.terminalMST(n)
		if err != nil {
			return false, err
		}
		if err := r.embed(n, mst, groupUsage); err != nil {
			return false, err
		}
		for _, e := range r.routes[n] {
			groupUsage[e]++
		}
		r.stats.RippedNets++
	}

	// Fold the round's route changes into the incremental index: the delta
	// touches only edges on the members' old and new trees, instead of the
	// two full ψ/φ(g) rescans of the cold implementation.
	r.cong.flush(members, saved)
	newPhi := r.cong.phi
	newMax := newPhi[0]
	for _, v := range newPhi {
		if v > newMax {
			newMax = v
		}
	}
	if newMax >= best {
		newRoutes := make([][]int, len(members))
		for i, n := range members {
			newRoutes[i] = r.routes[n]
		}
		r.revertGroup(members, saved)
		r.cong.unflush(members, newRoutes)
		r.stats.RevertedRound++
		return false, nil
	}
	return true, nil
}

// revertGroup restores the members' saved routes and the shared usage after
// an abandoned rip-up round. Members not yet rerouted (nil routes) are
// handled: removing a nil route from the usage is a no-op.
func (r *router) revertGroup(members []int, saved [][]int) {
	for i, n := range members {
		for _, e := range r.routes[n] {
			r.usage[e]--
		}
		r.routes[n] = saved[i]
		for _, e := range saved[i] {
			r.usage[e]++
		}
	}
}
