package tdm

import (
	"context"
	"fmt"
	"math"

	"tdmroute/internal/par"
	"tdmroute/internal/problem"
	"tdmroute/internal/stats"
)

// lrState carries the per-iteration work arrays of Algorithm 1. The
// (net, edge) incidence is stored once, edge-major in CSR form, for the
// per-edge sums of Eq. (13); the per-net TDM sums walk the routing itself.
// No per-cell pattern is ever stored: every cell's t_en is
// edgeSum[e] / sqrtPi[n], computed where it is read.
type lrState struct {
	in  *problem.Instance
	opt Options

	// Edge-major cells: the nets of edge e's cells are
	// cellNet[edgeStart[e]:edgeStart[e+1]], in ascending net order.
	edgeStart []int32
	cellNet   []int32

	// Flat membership CSRs mirroring in.Nets[n].Groups and
	// in.Groups[gi].Nets in declaration order, so the two hottest loops of
	// every iteration (computePi, groupTDMs) stream int32 arrays instead of
	// chasing per-net/per-group slice headers. Iteration order is identical
	// to the nested slices, so every float accumulation is bit-identical.
	// Rebuilt by every build: group membership can change across ECO deltas.
	netGrpStart []int32
	netGrp      []int32
	grpNetStart []int32
	grpNet      []int32

	partialBuf []float64 // reusable per-chunk partial-result buffer

	lambda  []float64 // λ_g, kept projected to sum 1
	sqrtPi  []float64 // sqrt(max(π_n, DefaultPiFloor)) — pattern weights
	sqrtPiX []float64 // sqrt(π_n) exact — lower-bound weights
	edgeSum []float64 // Σ_{n ∈ N_e} sqrtPi[n], the numerator of Eq. (13)
	netTDM  []float64 // Σ_k t_{e_k n}, written for grouped nets only
	grpTDM  []float64

	windows *groupWindows // SMA history of normalized group TDMs
}

// build (re)builds the state for routes on in under opt, whose defaults
// must already be applied: the edge-major CSR, the membership CSRs and the
// ungrouped nets' weights, the multipliers of line 2 of Algorithm 1 and
// empty SMA windows. Every array is sized from the instance and reuses the
// capacity an earlier build left, so a session stops allocating here once
// it has seen its largest routing. It fails on a route naming an edge
// outside the instance's graph; the next build starts over regardless.
// edgeSum, netTDM and grpTDM are only sized: the first sweep writes every
// entry anything reads.
func (s *lrState) build(in *problem.Instance, routes problem.Routing, opt Options) error {
	numEdges, numGroups := in.G.NumEdges(), len(in.Groups)
	s.in, s.opt = in, opt

	// Count each edge's cells into edgeStart[e+1] and take prefix sums;
	// then fill with edgeStart[e] as edge e's write cursor (so its cells
	// are in ascending net order) and shift the advanced cursors, which now
	// hold each edge's end, back by one slot.
	s.edgeStart = resize(s.edgeStart, numEdges+1)
	clear(s.edgeStart)
	for n, edges := range routes {
		for _, e := range edges {
			if uint(e) >= uint(numEdges) {
				return errEdgeRange(n, e, numEdges)
			}
			s.edgeStart[e+1]++
		}
	}
	for e := 0; e < numEdges; e++ {
		s.edgeStart[e+1] += s.edgeStart[e]
	}
	s.cellNet = resize(s.cellNet, int(s.edgeStart[numEdges]))
	for n, edges := range routes {
		for _, e := range edges {
			s.cellNet[s.edgeStart[e]] = int32(n)
			s.edgeStart[e]++
		}
	}
	copy(s.edgeStart[1:], s.edgeStart[:numEdges])
	s.edgeStart[0] = 0

	s.lambda = resize(s.lambda, numGroups)
	s.sqrtPi = resize(s.sqrtPi, len(in.Nets))
	s.sqrtPiX = resize(s.sqrtPiX, len(in.Nets))
	s.edgeSum = resize(s.edgeSum, numEdges)
	s.netTDM = resize(s.netTDM, len(in.Nets))
	s.grpTDM = resize(s.grpTDM, numGroups)
	s.buildMembership()
	s.initLambda(opt)
	if s.windows == nil || len(s.windows.count) != numGroups {
		s.windows = newGroupWindows(numGroups, DefaultWindow)
	} else {
		s.windows.reset()
	}
	return nil
}

// resize returns b with length n, reusing its capacity when it suffices.
func resize[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// errEdgeRange reports a route of net n naming edge e outside the graph.
func errEdgeRange(n, e, numEdges int) error {
	return fmt.Errorf("tdm: net %d: edge %d out of range [0, %d)", n, e, numEdges)
}

// buildMembership (re)builds the flat membership CSRs from the instance
// and sets the weights of the nets in no group.
func (s *lrState) buildMembership() {
	nets, groups := s.in.Nets, s.in.Groups
	s.netGrpStart = append(s.netGrpStart[:0], 0)
	s.netGrp = s.netGrp[:0]
	for n := range nets {
		for _, gi := range nets[n].Groups {
			s.netGrp = append(s.netGrp, int32(gi))
		}
		s.netGrpStart = append(s.netGrpStart, int32(len(s.netGrp)))
	}
	s.grpNetStart = append(s.grpNetStart[:0], 0)
	s.grpNet = s.grpNet[:0]
	for gi := range groups {
		for _, n := range groups[gi].Nets {
			s.grpNet = append(s.grpNet, int32(n))
		}
		s.grpNetStart = append(s.grpNetStart, int32(len(s.grpNet)))
	}
	// computePi skips the nets in no group: their π is 0 under every λ,
	// so their weights are set here, once per run.
	sqrtFloor := math.Sqrt(DefaultPiFloor)
	for n := range nets {
		if s.netGrpStart[n] == s.netGrpStart[n+1] {
			s.setPi(n, 0, sqrtFloor)
		}
	}
}

// scratch returns the reusable n-slot partial-result buffer. Every chunk of
// the following par.For writes its slot before any is read, so reuse across
// stages never observes stale values.
func (s *lrState) scratch(n int) []float64 {
	if cap(s.partialBuf) < n {
		s.partialBuf = make([]float64, n)
	}
	return s.partialBuf[:n]
}

// initLambda performs line 2 of Algorithm 1: uniform initial multipliers, or
// a warm start projected back onto the simplex.
func (s *lrState) initLambda(opt Options) {
	if g := len(s.in.Groups); g > 0 {
		if len(opt.WarmLambda) == g {
			// Floor the warm start at a small fraction of uniform: a long
			// converged run concentrates λ on its critical groups and lets
			// the rest decay toward minLambda, and the multiplicative update
			// regrows a vanished multiplier only at the normalization drift
			// rate — hundreds of iterations when an ECO shifts criticality
			// to a decayed group. The floor bounds that recovery while the
			// captured concentration still seeds the restart.
			floor := warmLambdaFloor / float64(g)
			var total float64
			for i, v := range opt.WarmLambda {
				if v < floor {
					v = floor
				}
				s.lambda[i] = v
				total += v
			}
			inv := 1 / total
			for i := range s.lambda {
				s.lambda[i] *= inv
			}
		} else {
			for i := range s.lambda {
				s.lambda[i] = 1 / float64(g)
			}
		}
	}
}

// computePi evaluates π_n = Σ_{g ∋ n} λ_g and the derived square roots for
// every net in a group; buildMembership has set the others.
func (s *lrState) computePi() {
	sqrtFloor := math.Sqrt(DefaultPiFloor)
	par.For(len(s.sqrtPi), s.opt.Workers, len(s.netGrp), func(_, start, end int) {
		for n := start; n < end; n++ {
			lo, hi := s.netGrpStart[n], s.netGrpStart[n+1]
			if lo == hi {
				continue
			}
			var p float64
			for _, gi := range s.netGrp[lo:hi] {
				p += s.lambda[gi]
			}
			s.setPi(n, p, sqrtFloor)
		}
	})
}

// setPi stores net n's weights for π_n = p; sqrtFloor is Sqrt(DefaultPiFloor).
// Above the floor both weights are the one root Sqrt(p).
func (s *lrState) setPi(n int, p, sqrtFloor float64) {
	x := math.Sqrt(p)
	s.sqrtPiX[n] = x
	if p < DefaultPiFloor {
		x = sqrtFloor
	}
	s.sqrtPi[n] = x
}

// solveLRS evaluates the per-edge sums of the optimal patterns of Eq. (13),
// t_en = (Σ_{n̂ ∈ N_e} √π_n̂) / √π_n, into edgeSum, and returns the
// Lagrangian dual value L_λ = Σ_e (Σ_{n ∈ N_e} √π_n)² (Eq. 11), which
// lower-bounds the primal optimum because the multipliers are kept on the
// simplex Σλ = 1. An edge no route uses keeps a stale sum, which nothing
// reads.
func (s *lrState) solveLRS() (lowerBound float64) {
	numEdges := len(s.edgeStart) - 1
	partial := s.scratch(par.NumChunks(numEdges))
	par.For(numEdges, s.opt.Workers, len(s.cellNet), func(chunk, start, end int) {
		var lb float64
		for e := start; e < end; e++ {
			lo, hi := s.edgeStart[e], s.edgeStart[e+1]
			if lo == hi {
				continue
			}
			var sum, sumExact float64
			for _, n := range s.cellNet[lo:hi] {
				sum += s.sqrtPi[n]
				sumExact += s.sqrtPiX[n]
			}
			s.edgeSum[e] = sum
			lb += sumExact * sumExact
		}
		partial[chunk] = lb
	})
	for _, p := range partial {
		lowerBound += p
	}
	return lowerBound
}

// groupTDMs evaluates every group's fractional TDM ratio under the current
// patterns and returns z = max_g GTR_g (0 when there are no groups). A
// grouped net's TDM adds its cells' t_en = edgeSum[e] / sqrtPi[n] in route
// order; netWork is the number of those cells, the loop's work estimate.
// Nets in no group are skipped: nothing reads their TDM.
func (s *lrState) groupTDMs(routes problem.Routing, netWork int) (z float64) {
	par.For(len(s.netTDM), s.opt.Workers, netWork, func(_, start, end int) {
		for n := start; n < end; n++ {
			if s.netGrpStart[n] == s.netGrpStart[n+1] {
				continue
			}
			w := s.sqrtPi[n]
			var sum float64
			for _, e := range routes[n] {
				sum += s.edgeSum[e] / w
			}
			s.netTDM[n] = sum
		}
	})
	partial := s.scratch(par.NumChunks(len(s.grpTDM)))
	par.For(len(s.grpTDM), s.opt.Workers, len(s.grpNet), func(chunk, start, end int) {
		var zc float64
		for gi := start; gi < end; gi++ {
			var sum float64
			for _, n := range s.grpNet[s.grpNetStart[gi]:s.grpNetStart[gi+1]] {
				sum += s.netTDM[n]
			}
			s.grpTDM[gi] = sum
			if sum > zc {
				zc = sum
			}
		}
		partial[chunk] = zc
	})
	for _, p := range partial {
		if p > z {
			z = p
		}
	}
	return z
}

// groupedCells counts the cells of the nets in some group, groupTDMs' work.
func (s *lrState) groupedCells(routes problem.Routing) int {
	cells := 0
	for n, edges := range routes {
		if s.netGrpStart[n] != s.netGrpStart[n+1] {
			cells += len(edges)
		}
	}
	return cells
}

// updateMultipliers applies Eq. (15) with the acceleration factor of
// Eq. (16), then projects λ back onto the simplex to restore the KKT
// condition Σλ = 1.
func (s *lrState) updateMultipliers(z float64) {
	if z <= 0 {
		return
	}
	// k at a zero z-score, precomputed: zscore returns exactly 0 for every
	// group of the first two iterations and for every degenerate window, so
	// caching one Sigmoid(±0) (both signed zeros give exactly 1/2) removes
	// the transcendental from those lanes without changing a bit.
	k0 := (DefaultAlpha-1)*stats.Sigmoid(0) + 1
	// A multiplier already at the floor with norm <= 1 stays at the floor:
	// k ∈ [1, α] then, so Pow(norm, k) <= 1, the rounded product cannot
	// exceed minLambda (rounding is monotone), and the clamp puts it back.
	// The window still records the sample — only the Pow/Sigmoid work is
	// skipped, not the history.
	// Every other lane raises norm to k through powNorm, which returns
	// math.Pow's bits while norm ∈ [2^-64, 1] and k ∈ [1, 4) — α = 3 keeps
	// every k in that range — and skips the dispatch and exponent
	// bookkeeping that cannot change a result there.
	partial := s.scratch(par.NumChunks(len(s.lambda)))
	par.For(len(s.lambda), s.opt.Workers, len(s.lambda)*lambdaUpdateWork, func(chunk, start, end int) {
		var sum float64
		for gi := start; gi < end; gi++ {
			norm := s.grpTDM[gi] / z // normalized group TDM ∈ (0, 1]
			lg := s.lambda[gi]
			//lint:ignore floateq the floor is an exact-assignment sentinel (the clamp stores the minLambda constant verbatim), so == is a tag test, not a numeric comparison
			if lg == minLambda && norm <= 1 {
				s.windows.push(gi, norm)
				sum += minLambda
				continue
			}
			x := s.windows.zscore(gi, norm)
			k := k0
			if x != 0 {
				k = (DefaultAlpha-1)*stats.Sigmoid(DefaultBeta*x) + 1
			}
			s.windows.push(gi, norm)
			lg *= powNorm(norm, k)
			if lg < minLambda {
				lg = minLambda // keep multiplicative updates alive
			}
			s.lambda[gi] = lg
			sum += lg
		}
		partial[chunk] = sum
	})
	var total float64
	for _, p := range partial {
		total += p
	}
	if total > 0 {
		inv := 1 / total
		par.For(len(s.lambda), s.opt.Workers, len(s.lambda), func(_, start, end int) {
			for gi := start; gi < end; gi++ {
				s.lambda[gi] *= inv
			}
		})
	}
}

// powNorm returns math.Pow(x, k), bit for bit. For x ∈ [2^-64, 1] and
// k ∈ [1, 4) it performs the floating-point operations math.Pow performs
// on such arguments, in the same order: split k into integer and fraction,
// move a fraction above 1/2 down by one, take Exp(yf·Log(x)), and multiply
// in x^yi by repeated squaring. It leaves out math.Pow's special-case
// dispatch and its Frexp/Ldexp exponent bookkeeping, which only keeps the
// products inside the normal range. Here they stay there anyway: the
// fractional factor x^yf lies in [2^-32, 2^32] and the powers x, x², x⁴
// that enter the product are at least 2^-256, so every product is at least
// 2^-288, and rounding in the normal range commutes with scaling by a power
// of two. Any other argument goes to math.Pow.
func powNorm(x, k float64) float64 {
	if !(x >= 0x1p-64 && x <= 1 && k >= 1 && k < 4) {
		return math.Pow(x, k)
	}
	yi := 1
	if k >= 3 {
		yi = 3
	} else if k >= 2 {
		yi = 2
	}
	yf := k - float64(yi) // math.Modf's fraction, by the same subtraction
	a := 1.0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a = math.Exp(yf * math.Log(x))
	}
	for p := x; yi != 0; yi >>= 1 {
		if yi&1 == 1 {
			a *= p
		}
		p *= p
	}
	return a
}

// lambdaUpdateWork is one group's multiplier update in par's work units
// (element visits). BenchmarkUpdateMultipliers puts its z-score, Sigmoid,
// window push and powNorm at about 100 ns per group on a 2-vCPU x86-64 VM
// (medians 105–111 ns, fastest runs 84–89 ns, at 406 and 40600 groups):
// some 10 of the ~10 ns visits par's grain is reckoned in.
const lambdaUpdateWork = 10

// minLambda prevents multipliers of persistently non-critical groups from
// underflowing to exactly zero, which would freeze them forever under the
// multiplicative update.
const minLambda = 1e-300

// warmLambdaFloor is the warm-start floor as a fraction of the uniform
// multiplier 1/g; see initLambda.
const warmLambdaFloor = 1e-3

// updateSubgradient applies the classic projected subgradient ascent with a
// Polyak step, kept for the ablation study of the Sec. IV-C update rule:
//
//	λ_g ← max(λ_g + step·(GTR_g − z), floor),  step = (ẑ − LB)/‖grad‖²
//
// where ẑ is the best primal value seen (an upper estimate of the dual
// optimum), followed by simplex projection.
func (s *lrState) updateSubgradient(z, lb, bestZ float64) {
	if z <= 0 {
		return
	}
	var norm2 float64
	for gi := range s.lambda {
		g := s.grpTDM[gi] - z
		norm2 += g * g
	}
	if norm2 == 0 {
		return // all groups tied at the max: λ is optimal for this t
	}
	gap := bestZ - lb
	if gap <= 0 {
		return
	}
	step := gap / norm2
	var total float64
	const floor = 1e-12
	for gi := range s.lambda {
		lg := s.lambda[gi] + step*(s.grpTDM[gi]-z)
		if lg < floor {
			lg = floor
		}
		s.lambda[gi] = lg
		total += lg
	}
	if total > 0 {
		inv := 1 / total
		for gi := range s.lambda {
			s.lambda[gi] *= inv
		}
	}
}

// RunLR executes Algorithm 1 on the topology and returns the best relaxed
// assignment found, its fractional objective z, the best lower bound, the
// iteration count, and whether the ε criterion was reached.
//
// The convergence test compares the running z against the best (largest)
// dual value seen so far; every dual value is a valid lower bound, so using
// the best one only tightens the test.
//
// RunLR is the anytime core of the pipeline: the best-so-far pattern set is
// snapshotted at every improving iteration boundary, the context is checked
// once per iteration (never inside the parallel inner loops, so a fixed
// cancellation point yields a bit-identical result), and worker panics are
// contained. When the loop stops early — ctx cancelled or a chunk panicked
// — stopped carries the cause (ctx.Err() or a *par.PanicError) and the
// returned ratios are the incumbent: the best completed sweep, or a single
// fallback pattern pass when no sweep completed. ratios is nil only when
// even the fallback pass failed; stopped then holds the terminal error.
//
// RunLR is Session.RunLR on a fresh session: the one-shot form for callers
// that solve a topology once.
func RunLR(ctx context.Context, in *problem.Instance, routes problem.Routing, opt Options) (ratios [][]float64, z, lb float64, iters int, converged bool, stopped error) {
	return NewSession(in).RunLR(ctx, routes, opt)
}

// runLRCore is the iteration loop of Algorithm 1 over a state that
// lrState.build has just built for routes, run by Session.RunLR.
//
// bestBuf's capacity is reused for the best-pattern snapshot, so a
// session's steady state allocates nothing per round beyond the returned
// per-net views. The possibly (re)allocated buffer is handed back as
// bestOut for the caller to keep.
func runLRCore(ctx context.Context, s *lrState, routes problem.Routing, opt Options, bestBuf []float64) (ratios [][]float64, z, lb float64, iters int, converged bool, stopped error, bestOut []float64) {
	bestZ := math.Inf(1)
	bestLB := 0.0
	best := bestBuf
	haveBest := false
	netWork := s.groupedCells(routes)

	stopped = par.Capture(func() error {
		for iters = 0; iters < opt.maxIter(); iters++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.computePi()
			curLB := s.solveLRS()
			curZ := s.groupTDMs(routes, netWork)

			if curLB > bestLB {
				bestLB = curLB
			}
			if curZ < bestZ {
				bestZ = curZ
				best = s.snapshot(best)
				haveBest = true
			}
			if opt.Trace != nil {
				opt.Trace(iters, curZ, curLB)
			}
			if bestLB > 0 && (bestZ-bestLB)/bestLB <= opt.Epsilon {
				iters++
				converged = true
				break
			}
			switch opt.Update {
			case UpdateSubgradient:
				s.updateSubgradient(curZ, curLB, bestZ)
			default:
				s.updateMultipliers(curZ)
			}
		}
		return nil
	})

	if !haveBest {
		// MaxIter == 0, no groups, or stopped before the first sweep
		// completed: fall back to a single pattern pass with the current
		// multipliers so the caller always receives a legalizable
		// incumbent. The pass is bounded work, so it runs even after a
		// deadline — anytime means "returns something legal", not "stops
		// instantly with nothing".
		if err := par.Capture(func() error {
			s.computePi()
			lbOnce := s.solveLRS()
			zOnce := s.groupTDMs(routes, netWork)
			best = s.snapshot(best)
			if lbOnce > bestLB {
				bestLB = lbOnce
			}
			bestZ = zOnce
			return nil
		}); err != nil {
			if stopped == nil {
				stopped = err
			}
			return nil, bestZ, bestLB, iters, false, stopped, best
		}
	}
	if opt.CaptureLambda != nil {
		opt.CaptureLambda(append([]float64(nil), s.lambda...))
	}
	return s.unflatten(best, routes), bestZ, bestLB, iters, converged, stopped, best
}

// snapshot stores the current patterns into best as edgeSum ‖ sqrtPi,
// reusing best's capacity.
func (s *lrState) snapshot(best []float64) []float64 {
	if need := len(s.edgeSum) + len(s.sqrtPi); cap(best) < need {
		best = make([]float64, 0, need)
	}
	best = append(best[:0], s.edgeSum...)
	return append(best, s.sqrtPi...)
}

// unflatten materializes the patterns of a snapshot in the per-net layout
// parallel to the routing: cell (n, k) gets
// t_en = edgeSum[routes[n][k]] / sqrtPi[n], the value groupTDMs added.
// The rows share one backing slab (slices of it are disjoint), replacing one
// allocation per net with two per call at million-net scale.
func (s *lrState) unflatten(best []float64, routes problem.Routing) [][]float64 {
	sum, sqrtPi := best[:len(s.edgeSum)], best[len(s.edgeSum):]
	out := make([][]float64, len(routes))
	backing := make([]float64, len(s.cellNet))
	for n, edges := range routes {
		row := backing[:len(edges):len(edges)]
		backing = backing[len(edges):]
		w := sqrtPi[n]
		for k, e := range edges {
			row[k] = sum[e] / w
		}
		out[n] = row
	}
	return out
}

// groupWindows stores, for every group, a ring buffer of the last w
// normalized TDM samples with streaming sum and sum of squares — a flat
// memory layout equivalent of stats.Window, avoiding one allocation per
// NetGroup on million-group instances.
type groupWindows struct {
	w     int
	buf   []float64 // g*w + slot
	count []int32
	head  []int32
	sum   []float64
	sumSq []float64
}

func newGroupWindows(groups, w int) *groupWindows {
	return &groupWindows{
		w:     w,
		buf:   make([]float64, groups*w),
		count: make([]int32, groups),
		head:  make([]int32, groups),
		sum:   make([]float64, groups),
		sumSq: make([]float64, groups),
	}
}

// zscore returns x_g of Eq. (16): the deviation of sample x from the window
// mean in units of the window standard deviation. With fewer than two
// samples, or a degenerate deviation, it returns 0 (neutral acceleration).
func (gw *groupWindows) zscore(g int, x float64) float64 {
	n := float64(gw.count[g])
	if n < 2 {
		return 0
	}
	mean := gw.sum[g] / n
	variance := gw.sumSq[g]/n - mean*mean
	if variance <= 0 {
		return 0
	}
	return (x - mean) / math.Sqrt(variance)
}

// reset empties every window without touching buf: push writes a slot
// before count reaches w and eviction reads only slots written since the
// reset, so stale samples from a previous run are never observed.
func (gw *groupWindows) reset() {
	for i := range gw.count {
		gw.count[i] = 0
		gw.head[i] = 0
		gw.sum[i] = 0
		gw.sumSq[i] = 0
	}
}

// push appends a sample to group g's window, evicting the oldest when full.
func (gw *groupWindows) push(g int, x float64) {
	base := g * gw.w
	if int(gw.count[g]) == gw.w {
		h := int(gw.head[g])
		old := gw.buf[base+h]
		gw.sum[g] -= old
		gw.sumSq[g] -= old * old
		gw.buf[base+h] = x
		h++
		if h == gw.w { // conditional wrap: the % div stall dominates this hot lane
			h = 0
		}
		gw.head[g] = int32(h)
	} else {
		// head stays 0 until the window first fills, so the next free slot
		// is simply count.
		gw.buf[base+int(gw.count[g])] = x
		gw.count[g]++
	}
	gw.sum[g] += x
	gw.sumSq[g] += x * x
}
