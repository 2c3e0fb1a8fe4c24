package tdm

import (
	"context"
	"math"
	"sort"

	"tdmroute/internal/problem"
)

// refineCheckEvery is the edge-block granularity of the context check in
// the refinement sweeps: a check per edge would be measurable overhead on
// million-edge-load instances, a check per sweep would make cancellation
// latency a full sweep. Stopping between any two edges keeps the
// assignment legal — refinement only ever spends margin an edge provably
// has.
const refineCheckEvery = 4096

// Refine performs the Sec. IV-E refinement (Algorithm 2) in place on a
// legalized assignment: on every edge it selects the candidate nets Ñ_e —
// those whose maximum containing-group TDM ratio Γ(n) (Eq. 18) is largest —
// and spends the edge's residual margin ξ_e = 1 − tol − Σ 1/t_en decreasing
// their ratios, largest first, in even decrements d computed by Eq. (21).
// Under LegalPow2 the per-edge move halves ratios instead (refineEdgePow2);
// the sweep around it is the same.
//
// One call is one full sweep over the edges; Γ is computed once per sweep
// from the assignment at sweep start, as in the paper. The sweep stops
// early between edge blocks once ctx is cancelled; a partial sweep leaves
// the assignment legal, merely less refined.
func Refine(ctx context.Context, in *problem.Instance, routes problem.Routing, ratios [][]int64, tol float64, legal Legalizer) {
	loads := problem.EdgeLoads(in.G.NumEdges(), routes)
	gamma := computeGamma(in, routes, ratios)

	var cand []candidate
	for ei, ls := range loads {
		if ei%refineCheckEvery == 0 && ctx != nil && ctx.Err() != nil {
			return
		}
		if len(ls) == 0 {
			continue
		}
		// Candidate selection: nets on this edge with maximum Γ.
		maxG := int64(-1)
		for _, l := range ls {
			if g := gamma[l.Net]; g > maxG {
				maxG = g
			}
		}
		if maxG < 0 {
			continue // only ungrouped nets: refining them is wasted margin
		}
		cand = cand[:0]
		var recip float64
		for _, l := range ls {
			t := ratios[l.Net][l.Pos]
			recip += 1 / float64(t)
			if gamma[l.Net] == maxG {
				cand = append(cand, candidate{net: l.Net, pos: l.Pos, t: t})
			}
		}
		xi := 1 - tol - recip
		if xi <= 0 || len(cand) == 0 {
			continue
		}
		legal.refine(cand, xi)
		for _, c := range cand {
			ratios[c.net][c.pos] = c.t
		}
	}
}

type candidate struct {
	net, pos int
	t        int64
}

// refineEdge is the loop of Algorithm 2 over one edge's candidates: sort
// non-increasing once, then repeatedly decrease all maximum-valued ratios by
// a common even decrement d, chosen so the margin is consumed without
// breaking the ordering (d capped by the gap b to the next distinct value).
//
// When the remaining margin cannot afford an even decrement of the whole
// maximum block, a final suffix step decreases as many of the block's last
// elements by 2 as the margin affords (the suffix keeps the non-increasing
// order); Algorithm 2 as printed leaves that tail margin unused.
func refineEdge(cand []candidate, xi float64) {
	sort.Slice(cand, func(i, j int) bool { return cand[i].t > cand[j].t })
	for xi > 0 {
		tmax := cand[0].t
		if tmax <= 2 {
			return
		}
		// CALCMD: m covers every ratio equal to tmax; b is the largest
		// decrement that keeps the sorted order (gap to the next
		// distinct value), or down to the legal minimum 2 when every
		// candidate already equals tmax.
		m := 1
		for m < len(cand) && cand[m].t == tmax {
			m++
		}
		var b int64
		if m < len(cand) {
			b = tmax - cand[m].t
		} else {
			b = tmax - 2
		}
		d := decrement(xi, tmax, m)
		if d > b {
			d = b
		}
		if d > tmax-2 {
			d = tmax - 2
		}
		d -= d % 2 // greatest even integer <= d
		if d >= 2 {
			for j := 0; j < m; j++ {
				cand[j].t -= d
			}
			// Eq. (19): margin consumed by m ratios dropping to tmax-d.
			xi -= float64(m) * (1/float64(tmax-d) - 1/float64(tmax))
			continue
		}
		// Suffix fallback: decrement by 2 the largest affordable count of
		// the block's trailing elements. Clamp the quotient before the int
		// conversion: for huge tmax, perElem underflows toward 0 and the
		// quotient can exceed the int range (the conversion would be
		// platform-defined, negative on amd64).
		perElem := 1/float64(tmax-2) - 1/float64(tmax)
		j := m
		if q := xi / perElem; q < float64(m) {
			//lint:ignore floatcast q < m bounds the conversion; a NaN quotient fails the comparison and keeps j = m
			j = int(q)
		}
		if j <= 0 {
			return
		}
		for i := m - j; i < m; i++ {
			cand[i].t -= 2
		}
		xi -= float64(j) * perElem
	}
}

// decrement evaluates Eq. (21): the d that would consume the whole margin
// if m ratios of value tmax drop to tmax-d, i.e. ξ = m(1/(tmax-d) - 1/tmax)
// solved for d. A non-positive margin yields 0.
//
// The equation is solved for the new denominator u = tmax - d, as
// u = m/(ξ + m/tmax), rather than for d directly: the two forms are
// algebraically identical, but the direct d = ξ·tm²/(ξ·tm + m) rounds up to
// tm when tmax is huge (saturated legalized ratios), and the callers' cap to
// tmax-2 would then overspend the margin by a constant. u is small exactly
// when the decrement is large, so rounding it up keeps the consumed margin
// at most ξ to within an ulp.
func decrement(xi float64, tmax int64, m int) int64 {
	if xi <= 0 {
		return 0
	}
	tm := float64(tmax)
	u := math.Ceil(float64(m) / (xi + float64(m)/tm))
	if u >= tm {
		return 0
	}
	if u < 1 {
		u = 1 // margin large enough for any d; callers cap at tmax-2
	}
	//lint:ignore floatcast u is clamped to [1, tm) by the two checks above
	return tmax - int64(u)
}

// computeGamma evaluates Γ(n) of Eq. (18) for every net: the maximum TDM
// ratio among the groups containing n, or -1 for ungrouped nets.
func computeGamma(in *problem.Instance, routes problem.Routing, ratios [][]int64) []int64 {
	netTDM := make([]int64, len(in.Nets))
	for n := range routes {
		var sum int64
		for _, t := range ratios[n] {
			sum += t
		}
		netTDM[n] = sum
	}
	grpTDM := make([]int64, len(in.Groups))
	for gi := range in.Groups {
		var sum int64
		for _, n := range in.Groups[gi].Nets {
			sum += netTDM[n]
		}
		grpTDM[gi] = sum
	}
	gamma := make([]int64, len(in.Nets))
	for n := range gamma {
		gamma[n] = -1
		for _, gi := range in.Nets[n].Groups {
			if grpTDM[gi] > gamma[n] {
				gamma[n] = grpTDM[gi]
			}
		}
	}
	return gamma
}
