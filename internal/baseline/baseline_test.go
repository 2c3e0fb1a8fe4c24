package baseline

import (
	"context"
	"testing"

	"tdmroute/internal/eval"
	"tdmroute/internal/gen"
	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
	"tdmroute/internal/tdm"
)

func testInstance(t *testing.T, seed int64) *problem.Instance {
	t.Helper()
	in, err := gen.Generate(gen.Config{
		Name: "bench", Seed: seed, FPGAs: 25, Edges: 55, Nets: 400, Groups: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestAllWinnersProduceLegalSolutions(t *testing.T) {
	in := testInstance(t, 1)
	for _, w := range Winners() {
		sol, err := w.Solve(in)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Errorf("%s: invalid solution: %v", w.Name, err)
		}
	}
}

func TestWinnersQualityOrdering(t *testing.T) {
	// The emulated entries must reproduce the Table II shape: "1st" worst
	// GTR, "3rd" best of the three (averaged over seeds to avoid noise).
	var totals [3]float64
	for seed := int64(0); seed < 3; seed++ {
		in := testInstance(t, 10+seed)
		for i, w := range Winners() {
			sol, err := w.Solve(in)
			if err != nil {
				t.Fatal(err)
			}
			gtr, _ := eval.MaxGroupTDM(in, sol)
			totals[i] += float64(gtr)
		}
	}
	if !(totals[0] > totals[1] && totals[1] > totals[2]) {
		t.Errorf("quality ordering violated: 1st=%.0f 2nd=%.0f 3rd=%.0f", totals[0], totals[1], totals[2])
	}
}

func TestOurTAImprovesEveryWinner(t *testing.T) {
	// The paper's key claim: applying the LR TDM assignment to the
	// winners' own topologies improves every one of them.
	in := testInstance(t, 2)
	for _, w := range Winners() {
		routes, err := w.Route(in)
		if err != nil {
			t.Fatal(err)
		}
		own := w.Assign(in, routes)
		ownGTR, _ := eval.MaxGroupTDM(in, &problem.Solution{Routes: routes, Assign: own})

		improved, rep, err := tdm.Assign(context.Background(), in, routes, tdm.Options{Epsilon: 1e-3, MaxIter: 600})
		if err != nil {
			t.Fatal(err)
		}
		if err := problem.ValidateSolution(in, &problem.Solution{Routes: routes, Assign: improved}); err != nil {
			t.Fatalf("%s+TA: invalid: %v", w.Name, err)
		}
		if rep.GTRMax > ownGTR {
			t.Errorf("%s: TA worsened GTR: %d -> %d", w.Name, ownGTR, rep.GTRMax)
		}
		if float64(rep.GTRMax) < rep.LowerBound-1e-6*rep.LowerBound {
			t.Errorf("%s+TA: GTR %d below LB %g", w.Name, rep.GTRMax, rep.LowerBound)
		}
	}
}

func TestRoutersValidOnSuite(t *testing.T) {
	suite, err := gen.Suite(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range suite[:3] { // keep the test fast
		for _, w := range Winners() {
			routes, err := w.Route(in)
			if err != nil {
				t.Fatalf("%s on %s: %v", w.Name, in.Name, err)
			}
			if err := problem.ValidateRouting(in, routes); err != nil {
				t.Errorf("%s on %s: %v", w.Name, in.Name, err)
			}
		}
	}
}

func TestAssignUniformRatioValue(t *testing.T) {
	// Two nets sharing one edge: uniform assignment gives both ratio 2.
	in, routes := twoNetsOneEdge()
	assign := AssignUniform(in, routes)
	if assign.Ratios[0][0] != 2 || assign.Ratios[1][0] != 2 {
		t.Errorf("ratios = %v", assign.Ratios)
	}
	// Three nets on one edge: |N_e| = 3 -> even ceil 4.
	in3, routes3 := kNetsOneEdge(3)
	assign = AssignUniform(in3, routes3)
	for n := 0; n < 3; n++ {
		if assign.Ratios[n][0] != 4 {
			t.Errorf("net %d ratio = %d, want 4", n, assign.Ratios[n][0])
		}
	}
}

func TestAssignProportionalFavorsCritical(t *testing.T) {
	// Net 0 in a big group, net 1 in a singleton group: net 0 must get
	// the smaller ratio on the shared edge.
	in, routes := twoNetsOneEdge()
	in.Groups = []problem.Group{{Nets: []int{0, 1}}, {Nets: []int{0}}, {Nets: []int{1}}}
	in.Groups[0].Nets = []int{0}
	in.Groups[0].Nets = append(in.Groups[0].Nets, 1)
	in.Groups = []problem.Group{
		{Nets: []int{0, 1}}, // both
		{Nets: []int{0}},    // extra weight on net 0
		{Nets: []int{0}},
	}
	in.RebuildNetGroups()
	assign := AssignProportional(in, routes)
	if assign.Ratios[0][0] >= assign.Ratios[1][0] {
		t.Errorf("critical net ratio %d >= non-critical %d", assign.Ratios[0][0], assign.Ratios[1][0])
	}
	sol := &problem.Solution{Routes: routes, Assign: assign}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatal(err)
	}
}

func TestAssignersHandleUngroupedNets(t *testing.T) {
	in, routes := twoNetsOneEdge()
	in.Groups = nil
	in.RebuildNetGroups()
	for _, assign := range []problem.Assignment{
		AssignUniform(in, routes),
		AssignProportional(in, routes),
		AssignGroupCount(in, routes),
	} {
		sol := &problem.Solution{Routes: routes, Assign: assign}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Errorf("ungrouped nets: %v", err)
		}
	}
}

func TestEvenCeil(t *testing.T) {
	// The baseline assigners share problem.EvenCeilRatio with the TDM
	// legalizer; keep the small-value contract pinned here too.
	cases := []struct {
		in   float64
		want int64
	}{{0, 2}, {2, 2}, {2.1, 4}, {3, 4}, {4, 4}, {5.5, 6}}
	for _, c := range cases {
		if got := problem.EvenCeilRatio(c.in); got != c.want {
			t.Errorf("EvenCeilRatio(%g) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestNetsBySpreadStable pins the "1st"-style routing order: nets by
// decreasing total pairwise terminal distance, ties in netlist order.
func TestNetsBySpreadStable(t *testing.T) {
	in := testInstance(t, 3)
	apsp := graph.NewAPSP(in.G)
	spread := func(n int) int64 {
		var sum int64
		terms := in.Nets[n].Terminals
		for i := range terms {
			for j := i + 1; j < len(terms); j++ {
				sum += int64(apsp.Dist(terms[i], terms[j]))
			}
		}
		return sum
	}
	order := netsBySpread(in, apsp)
	if len(order) != len(in.Nets) {
		t.Fatalf("order has %d nets, want %d", len(order), len(in.Nets))
	}
	ties := 0
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		sa, sb := spread(a), spread(b)
		if sa < sb || (sa == sb && a > b) {
			t.Fatalf("order[%d..%d] = nets %d (spread %d), %d (spread %d): want decreasing spread, ties by net id", i-1, i, a, sa, b, sb)
		}
		if sa == sb {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("instance has no equal spreads; the tie order is untested")
	}
}

func TestPathFinderReducesOveruse(t *testing.T) {
	in := testInstance(t, 5)
	first, err := RouteShortestPath(in)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := RoutePathFinder(in)
	if err != nil {
		t.Fatal(err)
	}
	if maxUsage(in, pf) > maxUsage(in, first)+2 {
		t.Errorf("pathfinder max edge usage %d much worse than naive %d", maxUsage(in, pf), maxUsage(in, first))
	}
}

func maxUsage(in *problem.Instance, routes problem.Routing) int {
	usage := make([]int, in.G.NumEdges())
	best := 0
	for _, edges := range routes {
		for _, e := range edges {
			usage[e]++
			if usage[e] > best {
				best = usage[e]
			}
		}
	}
	return best
}

func twoNetsOneEdge() (*problem.Instance, problem.Routing) {
	return kNetsOneEdge(2)
}

func kNetsOneEdge(k int) (*problem.Instance, problem.Routing) {
	g := graph.New(2, 1)
	g.AddEdge(0, 1)
	in := &problem.Instance{G: g, Nets: make([]problem.Net, k)}
	routes := make(problem.Routing, k)
	for i := 0; i < k; i++ {
		in.Nets[i].Terminals = []int{0, 1}
		routes[i] = []int{0}
	}
	in.Groups = make([]problem.Group, k)
	for i := 0; i < k; i++ {
		in.Groups[i].Nets = []int{i}
	}
	in.RebuildNetGroups()
	return in, routes
}
