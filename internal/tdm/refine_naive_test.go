package tdm

import (
	"container/heap"
	"context"
	"math/rand"
	"sort"
	"testing"

	"tdmroute/internal/problem"
)

// RefineNaive is the baseline refinement the paper describes and rejects in
// Sec. IV-E: heapify the candidate TDM ratios of each edge and decrease the
// maximum by 2 per iteration until the margin is exhausted, re-heapifying
// after every decrement. It reaches the same fixed point as Refine (both
// spend the whole margin on the maximum-valued candidates) but performs one
// heap operation per 2-unit decrement, where Algorithm 2 amortizes a whole
// block decrement into one step — the difference measured by
// BenchmarkRefineVsNaive.
func RefineNaive(in *problem.Instance, routes problem.Routing, ratios [][]int64, tol float64) {
	loads := problem.EdgeLoads(in.G.NumEdges(), routes)
	gamma := computeGamma(in, routes, ratios)

	for _, ls := range loads {
		if len(ls) == 0 {
			continue
		}
		maxG := int64(-1)
		for _, l := range ls {
			if g := gamma[l.Net]; g > maxG {
				maxG = g
			}
		}
		if maxG < 0 {
			continue
		}
		var cand []candidate
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
		refineEdgeNaive(cand, xi)
		for _, c := range cand {
			ratios[c.net][c.pos] = c.t
		}
	}
}

// candidateHeap is a max-heap on candidate ratios.
type candidateHeap []candidate

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].t > h[j].t }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refineEdgeNaive decreases the maximum candidate by 2 per heap operation
// until no decrement fits in the margin.
func refineEdgeNaive(cand []candidate, xi float64) {
	h := candidateHeap(append([]candidate(nil), cand...))
	heap.Init(&h)
	for {
		top := h[0]
		if top.t <= 2 {
			break
		}
		cost := 1/float64(top.t-2) - 1/float64(top.t)
		if cost > xi {
			break
		}
		xi -= cost
		h[0].t -= 2
		heap.Fix(&h, 0)
	}
	// Copy refined values back by (net, pos) identity.
	sort.Slice(h, func(i, j int) bool {
		if h[i].net != h[j].net {
			return h[i].net < h[j].net
		}
		return h[i].pos < h[j].pos
	})
	sort.Slice(cand, func(i, j int) bool {
		if cand[i].net != cand[j].net {
			return cand[i].net < cand[j].net
		}
		return cand[i].pos < cand[j].pos
	})
	for i := range cand {
		cand[i].t = h[i].t
	}
}

func TestRefineNaiveLegalAndEffective(t *testing.T) {
	in, routes, ratios := buildRefineFixture()
	before := maxGroupTDMInt(in, ratios)
	RefineNaive(in, routes, ratios, DefaultTol)
	after := maxGroupTDMInt(in, ratios)
	if after >= before {
		t.Fatalf("naive refinement made no progress: %d -> %d", before, after)
	}
	sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: ratios}}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatalf("invalid after naive refinement: %v", err)
	}
}

func TestRefineNaiveMatchesAlgorithm2(t *testing.T) {
	// Both refinements must exhaust the margin on the same candidate set;
	// the resulting GTR_max must agree (the block decrement of Algorithm 2
	// and the per-2 heap decrements reach the same balanced fixed point on
	// each edge up to element permutation).
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		in, routes := randomAssignInstance(rng)
		relaxed, _, _, _, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 500})
		a := Legalize(relaxed, LegalEven)
		b := make([][]int64, len(a))
		for n := range a {
			b[n] = append([]int64(nil), a[n]...)
		}
		Refine(context.Background(), in, routes, a, DefaultTol, LegalEven)
		RefineNaive(in, routes, b, DefaultTol)
		ga, gb := maxGroupTDMInt(in, a), maxGroupTDMInt(in, b)
		// Allow a small slack: the two schedules may split the last
		// decrement across different nets.
		diff := ga - gb
		if diff < 0 {
			diff = -diff
		}
		if float64(diff) > 0.05*float64(ga)+4 {
			t.Errorf("trial %d: Algorithm 2 GTR %d vs naive %d", trial, ga, gb)
		}
		for n := range b {
			for k, v := range b[n] {
				if v < 2 || v%2 != 0 {
					t.Fatalf("trial %d: naive produced illegal ratio %d", trial, v)
				}
				_ = k
			}
		}
	}
}

func TestRefineEdgeNaiveStopsAtMinimum(t *testing.T) {
	cand := []candidate{{0, 0, 4}, {1, 0, 4}}
	refineEdgeNaive(cand, 100)
	for _, c := range cand {
		if c.t != 2 {
			t.Errorf("ratio %d, want 2", c.t)
		}
	}
}

func TestRefineEdgeNaiveRespectsMargin(t *testing.T) {
	// Margin affords exactly one 8->6 step (1/6-1/8 = 1/24).
	cand := []candidate{{0, 0, 8}, {1, 0, 8}}
	refineEdgeNaive(cand, 1.0/24+1e-12)
	total := cand[0].t + cand[1].t
	if total != 14 { // one net refined to 6
		t.Errorf("ratios = %d,%d", cand[0].t, cand[1].t)
	}
}

func BenchmarkRefineVsNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in, routes := randomAssignInstance(rng)
	relaxed, _, _, _, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 500})
	base := Legalize(relaxed, LegalEven)
	clone := func() [][]int64 {
		c := make([][]int64, len(base))
		for n := range base {
			c[n] = append([]int64(nil), base[n]...)
		}
		return c
	}
	b.Run("Algorithm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Refine(context.Background(), in, routes, clone(), DefaultTol, LegalEven)
		}
	})
	b.Run("NaiveHeap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RefineNaive(in, routes, clone(), DefaultTol)
		}
	})
}

// BenchmarkRefineEdgeLargeRatios isolates the per-edge refinement loops in
// the paper's regime (ratios in the thousands): Algorithm 2 amortizes a
// whole block decrement into one step where the naive heap pays one
// operation per 2 units of decrement.
func BenchmarkRefineEdgeLargeRatios(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	mk := func() ([]candidate, float64) {
		cand := make([]candidate, 64)
		var recip float64
		for i := range cand {
			r := int64(10000 + 2*rng.Intn(2000))
			cand[i] = candidate{net: i, pos: 0, t: r}
			recip += 1 / float64(r)
		}
		return cand, 1 - DefaultTol - recip
	}
	b.Run("Algorithm2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cand, xi := mk()
			b.StartTimer()
			refineEdge(cand, xi)
		}
	})
	b.Run("NaiveHeap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cand, xi := mk()
			b.StartTimer()
			refineEdgeNaive(cand, xi)
		}
	})
}
