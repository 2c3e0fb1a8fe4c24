package tdm

import "tdmroute/internal/problem"

// Legalize rounds a relaxed assignment to legal TDM ratios in legal's
// domain (Sec. IV-E): each ratio is raised to the next even integer, or to
// the next power of two under LegalPow2, never below 2. Raising a ratio
// lowers its reciprocal, so if the relaxed per-edge reciprocal sums were at
// most 1 the legalized ones are too.
func Legalize(relaxed [][]float64, legal Legalizer) [][]int64 {
	out := ratioRows(relaxed)
	for n, ts := range relaxed {
		row := out[n]
		for k, t := range ts {
			row[k] = legal.round(t)
		}
	}
	return out
}

// ratioRows returns rows shaped like relaxed, carved from one backing slab:
// two allocations per call instead of one per net. Each row's capacity is
// clamped to its length, so an append to a row reallocates it instead of
// spilling into the next.
func ratioRows(relaxed [][]float64) [][]int64 {
	var total int
	for _, ts := range relaxed {
		total += len(ts)
	}
	out := make([][]int64, len(relaxed))
	backing := make([]int64, total)
	for n, ts := range relaxed {
		out[n], backing = backing[:len(ts):len(ts)], backing[len(ts):]
	}
	return out
}

// round returns the smallest legal ratio >= max(t, 2) in l's domain,
// saturating for +Inf or values beyond the int64 range. It delegates to the
// shared saturating helpers in internal/problem so the TDM and baseline
// stages legalize identically.
//
// LegalPow2 reproduces the ratio restriction of the paper's refs [2][3]
// (Pui et al.), which real TDM hardware favours because the per-edge slot
// frame stays as short as the largest ratio; it trades objective quality
// for schedulability, and the ablation benchmarks quantify the cost.
func (l Legalizer) round(t float64) int64 {
	if l == LegalPow2 {
		return problem.Pow2CeilRatio(t)
	}
	return problem.EvenCeilRatio(t)
}

// refine spends an edge's margin xi on its Γ-maximal candidates with l's
// per-edge move: Algorithm 2's even decrements, or halving under LegalPow2
// (the only move that keeps a ratio a power of two).
func (l Legalizer) refine(cand []candidate, xi float64) {
	if l == LegalPow2 {
		refineEdgePow2(cand, xi)
		return
	}
	refineEdge(cand, xi)
}
