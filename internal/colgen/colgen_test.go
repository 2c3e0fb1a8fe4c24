package colgen

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
	"tdmroute/internal/tdm"
)

func pathInstance(nv int, nets []problem.Net, groups []problem.Group) *problem.Instance {
	g := graph.New(nv, nv-1)
	for i := 0; i+1 < nv; i++ {
		g.AddEdge(i, i+1)
	}
	in := &problem.Instance{Name: "path", G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in
}

func TestColgenSingleEdgeSymmetric(t *testing.T) {
	// k nets on one edge, each its own group: optimum z = k.
	for _, k := range []int{1, 2, 4} {
		nets := make([]problem.Net, k)
		groups := make([]problem.Group, k)
		routes := make(problem.Routing, k)
		for i := 0; i < k; i++ {
			nets[i].Terminals = []int{0, 1}
			groups[i].Nets = []int{i}
			routes[i] = []int{0}
		}
		in := pathInstance(2, nets, groups)
		res, err := Solve(in, routes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("k=%d: did not converge", k)
		}
		if math.Abs(res.Z-float64(k)) > 1e-6*float64(k) {
			t.Errorf("k=%d: z = %g, want %d", k, res.Z, k)
		}
	}
}

func TestColgenGoldenRatioInstance(t *testing.T) {
	// Same instance as the LR test: net 0 on edges {0,1}, net 1 on {1};
	// separate groups. Optimum z = 1 + φ + 1... z = max(1+t0, t1) with
	// 1/t0+1/t1=1 minimized at t0=φ, giving z = 1+φ = 2.618...
	nets := []problem.Net{{Terminals: []int{0, 2}}, {Terminals: []int{1, 2}}}
	groups := []problem.Group{{Nets: []int{0}}, {Nets: []int{1}}}
	in := pathInstance(3, nets, groups)
	routes := problem.Routing{{0, 1}, {1}}
	res, err := Solve(in, routes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + (1+math.Sqrt(5))/2
	if !res.Converged || math.Abs(res.Z-want) > 1e-5 {
		t.Errorf("z = %g (converged=%v), want %g", res.Z, res.Converged, want)
	}
}

func TestColgenMatchesLRBoundRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 6; trial++ {
		in, routes := smallRandom(rng)
		res, err := Solve(in, routes, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: CG did not converge", trial)
		}
		_, zLR, lbLR, _, _, _ := tdm.RunLR(context.Background(), in, routes, tdm.Options{Epsilon: 1e-7, MaxIter: 20000})
		// Both solve the same linear relaxation: CG's z is its optimum.
		rel := math.Abs(res.Z-lbLR) / math.Max(1, res.Z)
		if rel > 5e-3 {
			t.Errorf("trial %d: CG z=%g, LR bound=%g (rel diff %g)", trial, res.Z, lbLR, rel)
		}
		if zLR < res.Z-1e-6*res.Z {
			t.Errorf("trial %d: LR primal %g below CG optimum %g", trial, zLR, res.Z)
		}
	}
}

// smallRandom builds a tiny instance with shortest-path routes.
func smallRandom(rng *rand.Rand) (*problem.Instance, problem.Routing) {
	nv := 4 + rng.Intn(3)
	g := graph.New(nv, nv+2)
	for i := 0; i+1 < nv; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(0, nv-1)
	nn := 3 + rng.Intn(5)
	nets := make([]problem.Net, nn)
	routes := make(problem.Routing, nn)
	d := graph.NewDijkstra(g)
	unit := make([]uint64, g.NumEdges())
	for e := range unit {
		unit[e] = 1
	}
	for i := 0; i < nn; i++ {
		u := rng.Intn(nv)
		v := rng.Intn(nv)
		for v == u {
			v = rng.Intn(nv)
		}
		nets[i].Terminals = []int{u, v}
		path, _ := d.ShortestPath(u, v, unit, nil)
		routes[i] = path
	}
	ng := 2 + rng.Intn(4)
	groups := make([]problem.Group, ng)
	for gi := range groups {
		size := 1 + rng.Intn(3)
		seen := map[int]bool{}
		for j := 0; j < size; j++ {
			n := rng.Intn(nn)
			if !seen[n] {
				seen[n] = true
				groups[gi].Nets = append(groups[gi].Nets, n)
			}
		}
		sortInts(groups[gi].Nets)
	}
	in := &problem.Instance{Name: "small", G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, routes
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestColgenNoGroups(t *testing.T) {
	nets := []problem.Net{{Terminals: []int{0, 1}}}
	in := pathInstance(2, nets, nil)
	res, err := Solve(in, problem.Routing{{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Z != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestColgenEmptyRouting(t *testing.T) {
	nets := []problem.Net{{Terminals: []int{0}}}
	groups := []problem.Group{{Nets: []int{0}}}
	in := pathInstance(2, nets, groups)
	res, err := Solve(in, problem.Routing{{}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("res = %+v", res)
	}
}

func TestColgenMismatchedRouting(t *testing.T) {
	nets := []problem.Net{{Terminals: []int{0, 1}}}
	in := pathInstance(2, nets, nil)
	if _, err := Solve(in, problem.Routing{}, Options{}); err == nil {
		t.Error("mismatched routing accepted")
	}
}

func TestColgenPatternsGrow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in, routes := smallRandom(rng)
	res, err := Solve(in, routes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 || res.Patterns < 1 {
		t.Errorf("res = %+v", res)
	}
}

func TestAssignCGProducesLegalSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		in, routes := smallRandom(rng)
		assign, rep, res, err := AssignCG(in, routes, Options{}, tdm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sol := &problem.Solution{Routes: routes, Assign: assign}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Converged {
			t.Errorf("trial %d: CG did not converge", trial)
		}
		if float64(rep.GTRMax) < rep.LowerBound-1e-6*math.Max(1, rep.LowerBound) {
			t.Errorf("trial %d: GTR %d below CG bound %g", trial, rep.GTRMax, rep.LowerBound)
		}
	}
}

func TestAssignCGMatchesLRQuality(t *testing.T) {
	// CG and LR solve the same relaxation; after identical legalization
	// and refinement their GTRs should be close on small instances.
	rng := rand.New(rand.NewSource(72))
	var cg, lr int64
	for trial := 0; trial < 6; trial++ {
		in, routes := smallRandom(rng)
		_, repCG, _, err := AssignCG(in, routes, Options{}, tdm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, repLR, err := tdm.Assign(context.Background(), in, routes, tdm.Options{Epsilon: 1e-6, MaxIter: 20000})
		if err != nil {
			t.Fatal(err)
		}
		cg += repCG.GTRMax
		lr += repLR.GTRMax
	}
	diff := cg - lr
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.15*float64(lr)+4 {
		t.Errorf("CG total %d vs LR total %d diverge", cg, lr)
	}
	t.Logf("GTR totals: CG=%d LR=%d", cg, lr)
}

func TestAssignCGNoGroups(t *testing.T) {
	nets := []problem.Net{{Terminals: []int{0, 1}}}
	in := pathInstance(2, nets, nil)
	assign, _, _, err := AssignCG(in, problem.Routing{{0}}, Options{}, tdm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if assign.Ratios[0][0] < 2 {
		t.Errorf("ratio = %d", assign.Ratios[0][0])
	}
}
