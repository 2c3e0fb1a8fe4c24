package tdm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tdmroute/internal/eval"
	"tdmroute/internal/problem"
)

func TestLegalizeRatio(t *testing.T) {
	cases := []struct {
		in   float64
		want int64
	}{
		{0, 2}, {1, 2}, {1.9, 2}, {2, 2}, {2.0000001, 4},
		{3, 4}, {3.5, 4}, {4, 4}, {4.2, 6}, {7.9, 8}, {8.1, 10},
		{1e9 + 0.5, 1_000_000_002},
		{math.NaN(), 2},
	}
	for _, c := range cases {
		if got := LegalEven.round(c.in); got != c.want {
			t.Errorf("LegalEven.round(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestLegalizeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		x := rng.Float64() * math.Pow(10, float64(rng.Intn(8)))
		r := LegalEven.round(x)
		if r < 2 || r%2 != 0 {
			t.Fatalf("LegalEven.round(%g) = %d not legal", x, r)
		}
		if float64(r) < x {
			t.Fatalf("LegalEven.round(%g) = %d decreased the ratio", x, r)
		}
		if float64(r) > x+2 {
			t.Fatalf("LegalEven.round(%g) = %d overshoots by more than 2", x, r)
		}
	}
}

func TestLegalizePreservesShape(t *testing.T) {
	relaxed := [][]float64{{1.5, 3.2}, {}, {7}}
	out := Legalize(relaxed, LegalEven)
	if len(out) != 3 || len(out[0]) != 2 || len(out[1]) != 0 || len(out[2]) != 1 {
		t.Fatalf("shape = %v", out)
	}
	if out[0][0] != 2 || out[0][1] != 4 || out[2][0] != 8 {
		t.Errorf("values = %v", out)
	}
}

func TestRefineEdgeConsumesMarginWithoutViolating(t *testing.T) {
	// Single edge, 3 candidate nets at ratios 10, 10, 4; margin from
	// 1 - (1/10+1/10+1/4) = 0.55.
	cand := []candidate{{0, 0, 10}, {1, 0, 10}, {2, 0, 4}}
	xi := 1.0 - (1.0/10 + 1.0/10 + 1.0/4)
	refineEdge(cand, xi)
	var recip float64
	for _, c := range cand {
		if c.t < 2 || c.t%2 != 0 {
			t.Fatalf("illegal refined ratio %d", c.t)
		}
		if c.t > 10 {
			t.Fatalf("refinement increased a ratio: %d", c.t)
		}
		recip += 1 / float64(c.t)
	}
	if recip > 1+1e-9 {
		t.Fatalf("refined reciprocals sum to %g", recip)
	}
	// Margin must be mostly consumed: no candidate can still drop by 2.
	for _, c := range cand {
		if c.t > 2 {
			extra := 1/float64(c.t-2) - 1/float64(c.t)
			if recip+extra <= 1+1e-12 {
				t.Fatalf("left margin on the table: net %d at %d could still drop", c.net, c.t)
			}
		}
	}
}

func TestRefineEdgeAllEqual(t *testing.T) {
	// All candidates equal; the margin 0.75 allows dropping both all the
	// way to the saturated pattern (2,2): Eq. 21 yields d = 6 in one step.
	cand := []candidate{{0, 0, 8}, {1, 0, 8}}
	xi := 1.0 - (1.0/8 + 1.0/8) // 0.75
	refineEdge(cand, xi)
	if cand[0].t != 2 || cand[1].t != 2 {
		t.Errorf("refined = %d,%d want 2,2", cand[0].t, cand[1].t)
	}
}

func TestRefineEdgeNoMargin(t *testing.T) {
	cand := []candidate{{0, 0, 2}, {1, 0, 2}}
	refineEdge(cand, 0)
	if cand[0].t != 2 || cand[1].t != 2 {
		t.Errorf("refinement changed saturated edge: %+v", cand)
	}
}

func TestRefineEdgeRespectsMinimumTwo(t *testing.T) {
	cand := []candidate{{0, 0, 4}}
	refineEdge(cand, 100) // absurd margin
	if cand[0].t != 2 {
		t.Errorf("refined = %d, want 2", cand[0].t)
	}
}

func TestDecrementEquation21(t *testing.T) {
	// Exact solve check: for the returned float d (before truncation),
	// xi == m*(1/(tmax-d) - 1/tmax).
	xi, tmax, m := 0.3, int64(20), 2
	d := decrement(xi, tmax, m)
	// d is truncated toward zero; verify the untruncated root.
	tm := float64(tmax)
	root := xi * tm * tm / (xi*tm + float64(m))
	consumed := float64(m) * (1/(tm-root) - 1/tm)
	if math.Abs(consumed-xi) > 1e-12 {
		t.Errorf("Eq.21 root check: consumed %g want %g", consumed, xi)
	}
	if float64(d) > root {
		t.Errorf("decrement %d exceeds exact root %g", d, root)
	}
	if decrement(-1, 10, 1) != 0 {
		t.Error("negative margin should yield 0")
	}
	if d := decrement(1e18, 10, 1); d < 8 || d > 10 {
		t.Errorf("huge margin should allow decrementing to the legal minimum, got %d", d)
	}
	// The consumed margin must never exceed xi, even for saturated ratios
	// where the direct Eq. (21) form rounds up to tmax (callers' cap to
	// tmax-2 would then overspend).
	for _, c := range []struct {
		xi   float64
		tmax int64
		m    int
	}{
		{0.3, 20, 2}, {0.5, 1 << 62, 2}, {1e-9, 1000, 5}, {0.9, 1 << 40, 1},
	} {
		d := decrement(c.xi, c.tmax, c.m)
		if d <= 0 {
			continue
		}
		consumed := float64(c.m) * (1/float64(c.tmax-d) - 1/float64(c.tmax))
		if consumed > c.xi*(1+1e-12) {
			t.Errorf("decrement(%g, %d, %d) = %d overspends: consumed %g",
				c.xi, c.tmax, c.m, d, consumed)
		}
	}
}

// buildRefineFixture: path graph with 3 edges, nets and groups arranged so
// edge margins exist after legalization.
func buildRefineFixture() (*problem.Instance, problem.Routing, [][]int64) {
	nets := []problem.Net{
		{Terminals: []int{0, 2}}, // edges 0,1
		{Terminals: []int{1, 3}}, // edges 1,2
		{Terminals: []int{0, 1}}, // edge 0
	}
	groups := []problem.Group{
		{Nets: []int{0, 1}}, // heavy group
		{Nets: []int{2}},
	}
	in := pathInstance(4, nets, groups)
	routes := problem.Routing{{0, 1}, {1, 2}, {0}}
	ratios := [][]int64{{10, 10}, {10, 10}, {10}}
	return in, routes, ratios
}

func TestRefineLowersGTRAndStaysLegal(t *testing.T) {
	in, routes, ratios := buildRefineFixture()
	before := maxGroupTDMInt(in, ratios)
	Refine(context.Background(), in, routes, ratios, DefaultTol, LegalEven)
	after := maxGroupTDMInt(in, ratios)
	if after > before {
		t.Fatalf("refinement worsened GTR: %d -> %d", before, after)
	}
	if after == before {
		t.Fatalf("refinement made no progress on loose fixture (GTR %d)", before)
	}
	sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: ratios}}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatalf("refined solution invalid: %v", err)
	}
}

func TestRefineTargetsMaxGroup(t *testing.T) {
	in, routes, ratios := buildRefineFixture()
	Refine(context.Background(), in, routes, ratios, DefaultTol, LegalEven)
	// Net 2 (the only member of the light group) shares edge 0 with net 0
	// of the heavy group. The margin on edge 0 must have gone to net 0,
	// not net 2.
	if ratios[2][0] != 10 {
		t.Errorf("light-group net was refined: %d", ratios[2][0])
	}
	if ratios[0][0] >= 10 {
		t.Errorf("heavy-group net not refined on shared edge: %d", ratios[0][0])
	}
}

func TestRefineSkipsUngroupedOnlyEdges(t *testing.T) {
	nets := []problem.Net{{Terminals: []int{0, 1}}}
	in := pathInstance(2, nets, nil)
	routes := problem.Routing{{0}}
	ratios := [][]int64{{8}}
	Refine(context.Background(), in, routes, ratios, DefaultTol, LegalEven)
	if ratios[0][0] != 8 {
		t.Errorf("ungrouped net refined: %d", ratios[0][0])
	}
}

func TestAssignEndToEndRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 8; trial++ {
		in, routes := randomAssignInstance(rng)
		assign, rep, err := Assign(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 2000})
		if err != nil {
			t.Fatal(err)
		}
		sol := &problem.Solution{Routes: routes, Assign: assign}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("trial %d: invalid: %v", trial, err)
		}
		gtr, _ := eval.MaxGroupTDM(in, sol)
		if gtr != rep.GTRMax {
			t.Errorf("trial %d: report GTRMax %d != evaluated %d", trial, rep.GTRMax, gtr)
		}
		if rep.GTRMax > rep.GTRNoRef {
			t.Errorf("trial %d: refinement worsened: %d > %d", trial, rep.GTRMax, rep.GTRNoRef)
		}
		if float64(rep.GTRMax) < rep.LowerBound-1e-6*rep.LowerBound {
			t.Errorf("trial %d: legal GTR %d below LB %g", trial, rep.GTRMax, rep.LowerBound)
		}
		if rep.RelaxedZ < rep.LowerBound-1e-6*rep.LowerBound {
			t.Errorf("trial %d: relaxed z %g below LB %g", trial, rep.RelaxedZ, rep.LowerBound)
		}
	}
}

func TestAssignRejectsMismatchedRouting(t *testing.T) {
	in, routes := singleEdgeInstance(2)
	if _, _, err := Assign(context.Background(), in, routes[:1], Options{}); err == nil {
		t.Error("expected error for mismatched routing")
	}
}
