// Session: incremental reuse of the LR state across feedback rounds. The
// iterated co-optimization loop reroutes one group between TDM assignments,
// so consecutive rounds share almost their entire (net, edge) incidence. A
// Session keeps the edge-major CSR view alive and, given the set of
// rerouted nets, splices only their cells out of and back into it, reusing
// every multiplier, window, and pattern buffer.
//
// A Session is also the only LR path: the package-level RunLR and Assign
// are its methods on a fresh session, whose first call builds the state.
//
// The patched arrays are exactly equal — element for element — to what a
// newLRState build on the new routing produces, because the build is
// deterministic (cells of an edge appear in ascending net order) and the
// splice preserves that order. With the multipliers and windows
// re-initialized by resetRun, a patched session round is therefore
// bit-identical to a fresh session's first call on the same routing.
package tdm

import (
	"context"
	"fmt"
	"slices"

	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// Session owns one instance's LR working set across an iterated solve. It
// is not safe for concurrent use.
//
// The contract for RunLR/Assign after the first call: every net whose route
// differs from the previous call must be listed in changed (extra entries
// with unchanged routes are harmless). The iterated solver satisfies this
// structurally — a rejected round is undone before the next reroute, so the
// session always holds the previously accepted topology and the current
// round's rerouted group is exactly the changed set.
type Session struct {
	in     *problem.Instance
	s      *lrState
	routes problem.Routing // header copy of the attached topology

	// Spare CSR buffers: patch splices into these, then swaps them with the
	// live view, so the previous round's arrays become the next spares.
	edgeStart2 []int32
	cellNet2   []int32

	// Epoch-stamped patch scratch (allocated once, never cleared in bulk).
	netStamp   []uint32
	edgeStamp  []uint32
	edgeDelta  []int32 // per affected edge: new minus old changed-net cells
	newCnt     []int32 // per affected edge: changed-net cells in the new routing
	bucketPos  []int32 // per affected edge: write cursor into newCell*
	epoch      uint32
	chg        []int32 // changed nets, deduped, ascending
	aff        []int32 // affected edges, ascending
	newCellNet []int32 // new cells bucketed per affected edge

	best []float64 // reusable best-pattern snapshot buffer for runLRCore
}

// NewSession creates an empty session for in; the LR state is built by the
// first RunLR or Assign call.
func NewSession(in *problem.Instance) *Session {
	return &Session{in: in}
}

// RunLR executes Algorithm 1 on the given topology; the package-level RunLR
// documents its results and anytime semantics. The first call builds the
// CSR state; subsequent calls patch it in place using changed (see the
// Session contract) and reuse every buffer.
func (t *Session) RunLR(ctx context.Context, routes problem.Routing, changed []int, opt Options) (ratios [][]float64, z, lb float64, iters int, converged bool, stopped error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(routes) != len(t.in.Nets) {
		return nil, 0, 0, 0, false, fmt.Errorf("tdm: routing has %d nets, instance has %d", len(routes), len(t.in.Nets))
	}
	for _, n := range changed {
		if n < 0 || n >= len(routes) {
			return nil, 0, 0, 0, false, fmt.Errorf("tdm: changed net index %d out of range [0, %d)", n, len(routes))
		}
	}
	opt = opt.withDefaults()
	if err := par.Capture(func() error {
		if t.s == nil {
			s, err := newLRState(t.in, routes, opt)
			t.s = s
			return err
		}
		t.grow(len(routes))
		if err := t.patch(routes, changed); err != nil {
			return err
		}
		t.s.resetRun(opt)
		return nil
	}); err != nil {
		return nil, 0, 0, 0, false, err
	}
	t.routes = append(t.routes[:0], routes...)
	ratios, z, lb, iters, converged, stopped, t.best = runLRCore(ctx, t.s, routes, opt, t.best)
	return ratios, z, lb, iters, converged, stopped
}

// Assign runs the complete assignment stage documented on the
// package-level Assign: LR through the session's incremental state, then
// Finish's legalization and refinement.
func (t *Session) Assign(ctx context.Context, routes problem.Routing, changed []int, opt Options) (problem.Assignment, Report, error) {
	opt = opt.withDefaults()
	relaxed, z, lb, iters, converged, stopped := t.RunLR(ctx, routes, changed, opt)
	if relaxed == nil {
		return problem.Assignment{}, Report{}, stopped
	}
	assign, rep, err := Finish(ctx, t.in, routes, relaxed, opt)
	if err != nil {
		return problem.Assignment{}, Report{}, err
	}
	rep.Iterations = iters
	rep.Converged = converged
	rep.LowerBound = lb
	rep.RelaxedZ = z
	if stopped != nil {
		rep.Interrupted = stopped // the LR stop is the earlier cause
	}
	return assign, rep, nil
}

// bumpEpoch opens a fresh stamp scope, clearing the stamp arrays only on
// the (practically unreachable) uint32 wrap-around.
func (t *Session) bumpEpoch() {
	t.epoch++
	if t.epoch == 0 {
		for i := range t.netStamp {
			t.netStamp[i] = 0
		}
		for i := range t.edgeStamp {
			t.edgeStamp[i] = 0
		}
		t.epoch = 1
	}
}

// stampEdge marks e affected, resetting its per-patch counters on first
// touch.
func (t *Session) stampEdge(e int) {
	if t.edgeStamp[e] != t.epoch {
		t.edgeStamp[e] = t.epoch
		t.edgeDelta[e] = 0
		t.newCnt[e] = 0
		t.aff = append(t.aff, int32(e))
	}
}

// grow extends the per-net state for nets appended to the instance since the
// session's LR state was built (ECO net additions). The appended nets carry
// no cells yet — exactly what a cold build on the old routing extended with
// empty routes produces — so the subsequent patch call, whose changed set
// must include every appended net (the delta solver guarantees it), splices
// their real cells in. Group-indexed state (multipliers, windows) is
// untouched: deltas edit membership of existing groups only, so the group
// count is invariant.
func (t *Session) grow(numNets int) {
	old := len(t.routes)
	if numNets <= old {
		return
	}
	s := t.s
	s.sqrtPi = growF64(s.sqrtPi, numNets)
	s.sqrtPiX = growF64(s.sqrtPiX, numNets)
	s.netTDM = growF64(s.netTDM, numNets)
	if t.netStamp != nil {
		stamp := make([]uint32, numNets)
		copy(stamp, t.netStamp)
		t.netStamp = stamp // appended nets start unstamped (epoch 0 != any live epoch)
	}
	for len(t.routes) < numNets {
		t.routes = append(t.routes, nil)
	}
}

// growF64 returns b zero-extended to length n.
func growF64(b []float64, n int) []float64 {
	if len(b) >= n {
		return b
	}
	nb := make([]float64, n)
	copy(nb, b)
	return nb
}

// resizeI32 returns b with length n, reusing its capacity when possible.
func resizeI32(b []int32, n int) []int32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]int32, n)
}

// patch splices the changed nets' cells out of and into the edge-major
// CSR view so it equals a cold build on routes, or fails, leaving the view
// as it was, when a changed net's new route names an edge outside the
// graph. Only the changed nets' routes are checked, before the view is
// touched: the others were checked when they entered it. The cells before
// the first affected edge stay in place, and the cells between affected
// edges move by one bulk copy per run, so the cost scales with the changed
// cells plus the edges and cells after the first affected edge, not with a
// whole rebuild. The patch allocates nothing once the spare buffers have
// grown to the working size: a steady-state round with unchanged routes is
// alloc-free.
func (t *Session) patch(routes problem.Routing, changed []int) error {
	s := t.s
	numEdges := t.in.G.NumEdges()
	if t.netStamp == nil {
		t.netStamp = make([]uint32, len(t.in.Nets))
		t.edgeStamp = make([]uint32, numEdges)
		t.edgeDelta = make([]int32, numEdges)
		t.newCnt = make([]int32, numEdges)
		t.bucketPos = make([]int32, numEdges)
	}
	t.bumpEpoch()
	t.chg = t.chg[:0]
	t.aff = t.aff[:0]
	for _, n := range changed {
		if t.netStamp[n] != t.epoch {
			t.netStamp[n] = t.epoch
			t.chg = append(t.chg, int32(n))
		}
	}
	if len(t.chg) == 0 {
		return nil
	}
	slices.Sort(t.chg)
	for _, n32 := range t.chg {
		n := int(n32)
		for _, e := range t.routes[n] {
			t.stampEdge(e)
			t.edgeDelta[e]--
		}
		for _, e := range routes[n] {
			if uint(e) >= uint(numEdges) {
				return errEdgeRange(n, e, numEdges)
			}
			t.stampEdge(e)
			t.edgeDelta[e]++
			t.newCnt[e]++
		}
	}
	if len(t.aff) == 0 {
		return nil // changed nets were and remain unrouted: nothing to splice
	}
	slices.Sort(t.aff)
	eMin := int(t.aff[0])

	// New edgeStart: unchanged prefix, then the old offsets shifted by the
	// running cell-count delta of the affected edges passed so far.
	es2 := resizeI32(t.edgeStart2, numEdges+1)
	copy(es2[:eMin+1], s.edgeStart[:eMin+1])
	var shift int32
	for e := eMin; e < numEdges; e++ {
		if t.edgeStamp[e] == t.epoch {
			shift += t.edgeDelta[e]
		}
		es2[e+1] = s.edgeStart[e+1] + shift
	}
	total2 := int(es2[numEdges])

	// Bucket the changed nets' new cells per affected edge. Iterating chg
	// in ascending net order makes every bucket net-ascending, the same
	// within-edge order the cold build produces.
	var bucketTotal int32
	for _, e32 := range t.aff {
		t.bucketPos[e32] = bucketTotal
		bucketTotal += t.newCnt[e32]
	}
	ncn := resizeI32(t.newCellNet, int(bucketTotal))
	for _, n32 := range t.chg {
		for _, e := range routes[n32] {
			ncn[t.bucketPos[e]] = n32
			t.bucketPos[e]++
		}
	}

	// Copy each run of unaffected cells as a block, and merge each affected
	// edge from its surviving old cells and its new bucket in ascending net
	// order.
	cn2 := resizeI32(t.cellNet2, total2)
	o := s.edgeStart[eMin] // read cursor into the old cells
	w := int32(copy(cn2, s.cellNet[:o]))
	for _, e32 := range t.aff {
		lo, hi := s.edgeStart[e32], s.edgeStart[e32+1]
		w += int32(copy(cn2[w:], s.cellNet[o:lo]))
		bEnd := t.bucketPos[e32]
		b := bEnd - t.newCnt[e32]
		for o = lo; ; w++ {
			for o < hi && t.netStamp[s.cellNet[o]] == t.epoch {
				o++ // old incarnation of a changed net: dropped
			}
			if b < bEnd && (o >= hi || ncn[b] < s.cellNet[o]) {
				cn2[w] = ncn[b]
				b++
			} else if o < hi {
				cn2[w] = s.cellNet[o]
				o++
			} else {
				break
			}
		}
	}
	w += int32(copy(cn2[w:], s.cellNet[o:]))
	if int(w) != total2 {
		panic(fmt.Sprintf("tdm: patch wrote %d cells, expected %d", w, total2))
	}

	// Swap the patched view in; the previous arrays become the spares.
	s.edgeStart, t.edgeStart2 = es2, s.edgeStart
	s.cellNet, t.cellNet2 = cn2, s.cellNet
	t.newCellNet = ncn
	return nil
}
