package exact

import (
	"context"
	"math/rand"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
	"tdmroute/internal/tdm"
)

func singleEdge(k int, grouped []bool) (*problem.Instance, problem.Routing) {
	g := graph.New(2, 1)
	g.AddEdge(0, 1)
	in := &problem.Instance{G: g, Nets: make([]problem.Net, k)}
	routes := make(problem.Routing, k)
	for i := 0; i < k; i++ {
		in.Nets[i].Terminals = []int{0, 1}
		routes[i] = []int{0}
	}
	for i := 0; i < k; i++ {
		if grouped == nil || grouped[i] {
			in.Groups = append(in.Groups, problem.Group{Nets: []int{i}})
		}
	}
	in.RebuildNetGroups()
	return in, routes
}

func TestExactSingleEdgeAllGrouped(t *testing.T) {
	// k nets, each its own group: optimum is the smallest even r with
	// k/r <= 1, i.e. evenceil(k).
	for _, k := range []int{1, 2, 3, 4, 5} {
		in, routes := singleEdge(k, nil)
		res, err := Solve(in, routes, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(k)
		if want%2 != 0 {
			want++
		}
		if res.GTRMax != want {
			t.Errorf("k=%d: GTR %d, want %d", k, res.GTRMax, want)
		}
		sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: res.Ratios}}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Errorf("k=%d: oracle solution invalid: %v", k, err)
		}
	}
}

func TestExactUngroupedNetsGetBigRatios(t *testing.T) {
	// 4 nets, only net 0 grouped: optimal objective 2 (the grouped net
	// at ratio 2, the other three share the remaining half budget).
	in, routes := singleEdge(4, []bool{true, false, false, false})
	res, err := Solve(in, routes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GTRMax != 2 {
		t.Fatalf("GTR %d, want 2", res.GTRMax)
	}
	if res.Ratios[0][0] != 2 {
		t.Errorf("grouped net ratio %d, want 2", res.Ratios[0][0])
	}
	sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: res.Ratios}}
	if err := problem.ValidateSolution(in, sol); err != nil {
		t.Fatalf("oracle solution invalid: %v", err)
	}
}

func TestExactAsymmetricGroups(t *testing.T) {
	// Two nets on one edge; groups {n0} and {n0,n1}: optimum t0=t1=2,
	// objective 4.
	g := graph.New(2, 1)
	g.AddEdge(0, 1)
	in := &problem.Instance{
		G:    g,
		Nets: []problem.Net{{Terminals: []int{0, 1}}, {Terminals: []int{0, 1}}},
		Groups: []problem.Group{
			{Nets: []int{0}},
			{Nets: []int{0, 1}},
		},
	}
	in.RebuildNetGroups()
	routes := problem.Routing{{0}, {0}}
	res, err := Solve(in, routes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GTRMax != 4 {
		t.Errorf("GTR %d, want 4", res.GTRMax)
	}
}

func TestExactTwoEdgePath(t *testing.T) {
	// Net 0 over edges {0,1}, net 1 over {1}; separate groups. Integral
	// optimum: on edge 1 pick (t0,t1) even with 1/t0+1/t1<=1 minimizing
	// max(t0+2, t1): t0=2,t1=2 -> max(4,2)=4.
	g := graph.New(3, 2)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	in := &problem.Instance{
		G:    g,
		Nets: []problem.Net{{Terminals: []int{0, 2}}, {Terminals: []int{1, 2}}},
		Groups: []problem.Group{
			{Nets: []int{0}},
			{Nets: []int{1}},
		},
	}
	in.RebuildNetGroups()
	routes := problem.Routing{{0, 1}, {1}}
	res, err := Solve(in, routes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GTRMax != 4 {
		t.Errorf("GTR %d, want 4", res.GTRMax)
	}
}

func TestExactRefusesLargeInstances(t *testing.T) {
	in, routes := singleEdge(20, nil)
	if _, err := Solve(in, routes, Options{}); err == nil {
		t.Error("20-cell instance accepted with default cap")
	}
}

// randomTiny builds instances small enough for the oracle.
func randomTiny(rng *rand.Rand) (*problem.Instance, problem.Routing) {
	nv := 3 + rng.Intn(2)
	g := graph.New(nv, nv)
	for i := 0; i+1 < nv; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(0, nv-1)
	nn := 2 + rng.Intn(4)
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
	ng := 1 + rng.Intn(3)
	groups := make([]problem.Group, ng)
	for gi := range groups {
		m := 1 + rng.Intn(2)
		seen := map[int]bool{}
		for j := 0; j < m; j++ {
			n := rng.Intn(nn)
			if !seen[n] {
				seen[n] = true
				groups[gi].Nets = append(groups[gi].Nets, n)
			}
		}
		sortIntsSlice(groups[gi].Nets)
	}
	in := &problem.Instance{Name: "tiny", G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in, routes
}

func sortIntsSlice(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestExactBracketsPipelineOnRandomTiny(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var pipelineTotal, exactTotal int64
	checked := 0
	for trial := 0; trial < 40; trial++ {
		in, routes := randomTiny(rng)
		res, err := Solve(in, routes, Options{MaxCells: 12})
		if err != nil {
			continue // too large for the oracle; skip
		}
		checked++
		sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: res.Ratios}}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("trial %d: oracle solution invalid: %v", trial, err)
		}

		assign, rep, err := tdm.Assign(context.Background(), in, routes, tdm.Options{Epsilon: 1e-6, MaxIter: 3000})
		if err != nil {
			t.Fatal(err)
		}
		_ = assign
		// The pipeline can never beat the oracle.
		if rep.GTRMax < res.GTRMax {
			t.Fatalf("trial %d: pipeline %d beats 'optimal' %d — oracle bug", trial, rep.GTRMax, res.GTRMax)
		}
		// The relaxed LR bound can never exceed the integral optimum.
		if rep.LowerBound > float64(res.GTRMax)+1e-6 {
			t.Fatalf("trial %d: LR bound %g above integral optimum %d", trial, rep.LowerBound, res.GTRMax)
		}
		pipelineTotal += rep.GTRMax
		exactTotal += res.GTRMax
	}
	if checked < 20 {
		t.Fatalf("only %d/40 instances fit the oracle", checked)
	}
	// The heuristic pipeline should be near-optimal on tiny instances.
	if pipelineTotal > exactTotal*3/2 {
		t.Errorf("pipeline total %d vs exact %d: integrality gap too large", pipelineTotal, exactTotal)
	}
	t.Logf("pipeline total %d vs exact optimal %d over %d instances", pipelineTotal, exactTotal, checked)
}

func TestExactNodesCounted(t *testing.T) {
	in, routes := singleEdge(3, nil)
	res, err := Solve(in, routes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes < 1 {
		t.Error("no nodes explored")
	}
}

func BenchmarkExactTiny(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in, routes := randomTiny(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(in, routes, Options{MaxCells: 12}); err != nil {
			b.Skip("instance too large")
		}
	}
}
