package graph

import (
	"cmp"
	"math"
	"slices"
)

// WeightedEdge is an edge of an abstract weighted graph handed to Kruskal.
type WeightedEdge struct {
	U, V   int
	Weight int64
}

// Kruskal computes a minimum spanning forest of the abstract graph on
// vertices [0, n) with the given edges, returning the selected edges in the
// order they were adopted. Ties are broken by input order after a stable
// sort, so the result is deterministic.
//
// When the input graph is connected the result is a spanning tree with
// exactly n-1 edges (for n >= 1). It is MSTAppend on a fresh scratch and a
// freshly allocated result.
func Kruskal(n int, edges []WeightedEdge) []WeightedEdge {
	var s KruskalScratch
	return s.MSTAppend(make([]WeightedEdge, 0, max(0, n-1)), n, edges)
}

// KruskalScratch owns the reusable state of repeated Kruskal runs: the DSU
// and the sort buffer. A router computing one terminal MST per net reuses one
// scratch per worker instead of allocating per net.
type KruskalScratch struct {
	dsu    DSU
	sorted []WeightedEdge
}

// MSTAppend computes the same minimum spanning forest as Kruskal — identical
// selection and order, including the stable tie-breaking — and appends the
// selected edges to dst. The input edges slice is not modified.
func (s *KruskalScratch) MSTAppend(dst []WeightedEdge, n int, edges []WeightedEdge) []WeightedEdge {
	s.sorted = append(s.sorted[:0], edges...)
	sorted := s.sorted
	slices.SortStableFunc(sorted, func(a, b WeightedEdge) int { return cmp.Compare(a.Weight, b.Weight) })

	s.dsu.Reset(n)
	want := len(dst) + max(0, n-1)
	for _, e := range sorted {
		if s.dsu.Union(e.U, e.V) {
			dst = append(dst, e)
			if len(dst) == want {
				break
			}
		}
	}
	return dst
}

// MSTCost returns the sum of the weights of the given edges. For a spanning
// tree produced by Kruskal it is the tree cost used by the net-ordering score
// θ(n) in Eq. (1) of the paper.
func MSTCost(tree []WeightedEdge) int64 {
	var total int64
	for _, e := range tree {
		total = satAdd(total, e.Weight)
	}
	return total
}

// satAdd adds two edge weights, clamping at the int64 extremes instead of
// wrapping. It mirrors problem.SatAdd64, which this package cannot import
// (problem depends on graph): a tree holding a few near-saturated weights
// would otherwise wrap MSTCost negative and invert the net-ordering score.
func satAdd(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		if a > 0 {
			return math.MaxInt64
		}
		return math.MinInt64
	}
	return s
}
