// Session: incremental reuse of the LR state across feedback rounds. The
// iterated co-optimization loop reroutes one group between TDM assignments,
// so consecutive rounds share almost their entire (net, edge) incidence;
// rebuilding both CSR views from scratch every round is the dominant avoidable
// cost on large instances. A Session keeps the views alive and, given the
// set of rerouted nets, splices only their cells out of and back into the
// flat arrays, reusing every multiplier, window, and pattern buffer.
//
// A Session is also the only LR path: the package-level RunLR and Assign
// are its methods on a fresh session, whose first call builds the state.
//
// The patched arrays are exactly equal — element for element — to what a
// newLRState build on the new routing produces, because the build is
// deterministic (cells of an edge appear in ascending net order, cells of a
// net in route order) and the splice preserves both orders. With the
// multipliers and windows re-initialized by resetRun, a patched session
// round is therefore bit-identical to a fresh session's first call on the
// same routing.
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
	// live views, so the previous round's arrays become the next spares.
	edgeStart2 []int32
	netStart2  []int32
	cellNet2   []int32
	cellPos2   []int32
	netCell2   []int32

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
	newCellPos []int32

	best []float64 // reusable best-pattern buffer for runLRCore
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
			t.s = newLRState(t.in, routes, opt)
		} else {
			t.grow(len(routes))
			t.patch(routes, changed)
			t.s.resetRun(opt)
		}
		return nil
	}); err != nil {
		return nil, 0, 0, 0, false, err
	}
	t.routes = append(t.routes[:0], routes...)
	if t.best != nil && len(t.best) != len(t.s.cellRatio) {
		if cap(t.best) >= len(t.s.cellRatio) {
			t.best = t.best[:len(t.s.cellRatio)]
		} else {
			t.best = make([]float64, len(t.s.cellRatio))
		}
	}
	var bestOut []float64
	ratios, z, lb, iters, converged, stopped, bestOut = runLRCore(ctx, t.s, routes, opt, t.best)
	t.best = bestOut
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
// no cells yet: netStart gains slots repeating the previous total — exactly
// what a cold build on the old routing extended with empty routes produces —
// so the subsequent patch call, whose changed set must include every
// appended net (the delta solver guarantees it), splices their real cells
// in. Group-indexed state (multipliers, windows) is untouched: deltas edit
// membership of existing groups only, so the group count is invariant.
func (t *Session) grow(numNets int) {
	old := len(t.routes)
	if numNets <= old {
		return
	}
	s := t.s
	ns := make([]int32, numNets+1)
	copy(ns, s.netStart)
	tail := s.netStart[old]
	for n := old + 1; n <= numNets; n++ {
		ns[n] = tail
	}
	s.netStart = ns
	s.pi = growF64(s.pi, numNets)
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

// patch splices the changed nets' cells out of and into the CSR views so
// the arrays equal a cold build on routes. Everything strictly before the
// first affected edge (cell arrays) and the first changed net (netStart,
// and the netCell slots whose values point into the untouched cell prefix)
// is kept by bulk copies; the suffix is rewritten by per-edge block copies
// and ordered merges. The patch allocates nothing once the spare buffers
// have grown to the working size — a steady-state round with unchanged
// routes is alloc-free — but it is prefix-preserving rather than strictly
// O(changed): cost scales with the array suffix after the first affected
// edge, not with the whole instance rebuild.
func (t *Session) patch(routes problem.Routing, changed []int) {
	s := t.s
	numEdges := t.in.G.NumEdges()
	numNets := len(t.in.Nets)
	if t.netStamp == nil {
		t.netStamp = make([]uint32, numNets)
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
		return
	}
	slices.Sort(t.chg)
	for _, n32 := range t.chg {
		n := int(n32)
		for _, e := range t.routes[n] {
			t.stampEdge(e)
			t.edgeDelta[e]--
		}
		for _, e := range routes[n] {
			t.stampEdge(e)
			t.edgeDelta[e]++
			t.newCnt[e]++
		}
	}
	if len(t.aff) == 0 {
		return // changed nets were and remain unrouted: nothing to splice
	}
	slices.Sort(t.aff)
	eMin := int(t.aff[0])
	nMin := int(t.chg[0])

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
	// New netStart: unchanged prefix, then per-net lengths (new length for
	// changed nets, old length otherwise).
	ns2 := resizeI32(t.netStart2, numNets+1)
	copy(ns2[:nMin+1], s.netStart[:nMin+1])
	for n := nMin; n < numNets; n++ {
		if t.netStamp[n] == t.epoch {
			ns2[n+1] = ns2[n] + int32(len(routes[n]))
		} else {
			ns2[n+1] = ns2[n] + (s.netStart[n+1] - s.netStart[n])
		}
	}
	total2 := int(es2[numEdges])
	if int(ns2[numNets]) != total2 {
		panic(fmt.Sprintf("tdm: patched CSR views disagree: %d edge cells vs %d net cells", total2, ns2[numNets]))
	}

	cn2 := resizeI32(t.cellNet2, total2)
	cp2 := resizeI32(t.cellPos2, total2)
	nc2 := resizeI32(t.netCell2, total2)
	prefixCells := s.edgeStart[eMin]
	copy(cn2[:prefixCells], s.cellNet[:prefixCells])
	copy(cp2[:prefixCells], s.cellPos[:prefixCells])
	copy(nc2[:s.netStart[nMin]], s.netCell[:s.netStart[nMin]])
	// Unchanged nets at or above nMin: their netCell slots move with ns2,
	// but the values of cells living in the untouched prefix (flat index
	// below prefixCells, i.e. edge below eMin) are preserved — copy those
	// per net; the suffix walk rewrites every slot whose cell moved.
	for n := nMin; n < numNets; n++ {
		if t.netStamp[n] == t.epoch {
			continue
		}
		oldBase, newBase := s.netStart[n], ns2[n]
		cnt := s.netStart[n+1] - oldBase
		for k := int32(0); k < cnt; k++ {
			if v := s.netCell[oldBase+k]; v < prefixCells {
				nc2[newBase+k] = v
			}
		}
	}

	// Bucket the changed nets' new cells per affected edge. Iterating chg
	// in ascending net order makes every bucket net-ascending, the same
	// within-edge order the cold build produces.
	var bucketTotal int32
	for _, e32 := range t.aff {
		t.bucketPos[e32] = bucketTotal
		bucketTotal += t.newCnt[e32]
	}
	ncn := resizeI32(t.newCellNet, int(bucketTotal))
	ncp := resizeI32(t.newCellPos, int(bucketTotal))
	for _, n32 := range t.chg {
		for k, e := range routes[n32] {
			i := t.bucketPos[e]
			t.bucketPos[e] = i + 1
			ncn[i] = n32
			ncp[i] = int32(k)
		}
	}

	// Suffix walk: block-copy unaffected edges (their cells shift as a
	// unit), merge affected edges from the surviving old cells and the new
	// bucket in ascending net order. Every cell writes its netCell slot —
	// both its flat index and, for nets >= nMin, its slot may have moved.
	w := prefixCells
	for e := eMin; e < numEdges; e++ {
		lo, hi := s.edgeStart[e], s.edgeStart[e+1]
		if t.edgeStamp[e] != t.epoch {
			copy(cn2[w:w+hi-lo], s.cellNet[lo:hi])
			copy(cp2[w:w+hi-lo], s.cellPos[lo:hi])
			for i := w; i < w+hi-lo; i++ {
				nc2[ns2[cn2[i]]+cp2[i]] = i
			}
			w += hi - lo
			continue
		}
		bEnd := t.bucketPos[e]
		b := bEnd - t.newCnt[e]
		o := lo
		for {
			for o < hi && t.netStamp[s.cellNet[o]] == t.epoch {
				o++ // old incarnation of a changed net: dropped
			}
			if o >= hi && b >= bEnd {
				break
			}
			var net, pos int32
			if b >= bEnd || (o < hi && s.cellNet[o] < ncn[b]) {
				net, pos = s.cellNet[o], s.cellPos[o]
				o++
			} else {
				net, pos = ncn[b], ncp[b]
				b++
			}
			cn2[w] = net
			cp2[w] = pos
			nc2[ns2[net]+pos] = w
			w++
		}
	}
	if int(w) != total2 {
		panic(fmt.Sprintf("tdm: patch wrote %d cells, expected %d", w, total2))
	}

	// Swap the patched views in; the previous arrays become the spares.
	s.edgeStart, t.edgeStart2 = es2, s.edgeStart
	s.netStart, t.netStart2 = ns2, s.netStart
	s.cellNet, t.cellNet2 = cn2, s.cellNet
	s.cellPos, t.cellPos2 = cp2, s.cellPos
	s.netCell, t.netCell2 = nc2, s.netCell
	t.newCellNet, t.newCellPos = ncn, ncp
	if cap(s.cellRatio) >= total2 {
		s.cellRatio = s.cellRatio[:total2]
	} else {
		s.cellRatio = make([]float64, total2)
	}
}
