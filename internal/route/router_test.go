package route

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tdmroute/internal/gen"
	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// ring returns an n-cycle FPGA graph.
func ring(n int) *graph.Graph {
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func randomInstance(nv, extraEdges, nn, ng int, seed int64) *problem.Instance {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nv, nv-1+extraEdges)
	perm := rng.Perm(nv)
	for i := 1; i < nv; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for k := 0; k < extraEdges; k++ {
		u, v := rng.Intn(nv), rng.Intn(nv)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	in := &problem.Instance{Name: "rand", G: g, Nets: make([]problem.Net, nn), Groups: make([]problem.Group, ng)}
	for i := 0; i < nn; i++ {
		k := 2
		if rng.Intn(4) == 0 {
			k = 2 + rng.Intn(4)
		}
		if k > nv {
			k = nv
		}
		in.Nets[i].Terminals = rng.Perm(nv)[:k]
	}
	for gi := 0; gi < ng; gi++ {
		m := 1 + rng.Intn(5)
		seen := map[int]bool{}
		for j := 0; j < m; j++ {
			n := rng.Intn(nn)
			if !seen[n] {
				seen[n] = true
				in.Groups[gi].Nets = append(in.Groups[gi].Nets, n)
			}
		}
		sortInts(in.Groups[gi].Nets)
	}
	in.RebuildNetGroups()
	return in
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestRouteTwoPinShortestPath(t *testing.T) {
	// Line graph: the only route from 0 to 3 is edges 0,1,2.
	g := graph.New(4, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	in := &problem.Instance{
		G:      g,
		Nets:   []problem.Net{{Terminals: []int{0, 3}}},
		Groups: []problem.Group{{Nets: []int{0}}},
	}
	in.RebuildNetGroups()
	routes, stats, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateRouting(in, routes); err != nil {
		t.Fatal(err)
	}
	if len(routes[0]) != 3 {
		t.Errorf("route = %v, want 3 edges", routes[0])
	}
	if stats.RoutedNets != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRouteIntraFPGANetEmpty(t *testing.T) {
	g := ring(4)
	in := &problem.Instance{
		G:    g,
		Nets: []problem.Net{{Terminals: []int{2}}},
	}
	in.RebuildNetGroups()
	routes, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes[0]) != 0 {
		t.Errorf("intra-FPGA net routed: %v", routes[0])
	}
}

func TestRouteCongestionSpreadsOnRing(t *testing.T) {
	// 4-cycle, many identical 2-pin nets between opposite corners 0 and 2.
	// Both routes (via 1 or via 3) have 2 hops; congestion-aware routing
	// must split the nets across the two sides rather than stack them all
	// on one.
	in := &problem.Instance{
		G:    ring(4),
		Nets: make([]problem.Net, 8),
	}
	for i := range in.Nets {
		in.Nets[i].Terminals = []int{0, 2}
	}
	in.RebuildNetGroups()
	routes, _, err := Route(context.Background(), in, Options{RipUpRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := problem.ValidateRouting(in, routes); err != nil {
		t.Fatal(err)
	}
	usage := make([]int, in.G.NumEdges())
	for _, edges := range routes {
		for _, e := range edges {
			usage[e]++
		}
	}
	// Edges 0:(0,1) 1:(1,2) pair up on one side; 2:(2,3) 3:(3,0) the other.
	side1, side2 := usage[0], usage[3]
	if side1 != 4 || side2 != 4 {
		t.Errorf("unbalanced split: usage=%v", usage)
	}
}

func TestRouteMultiPinSteiner(t *testing.T) {
	// Star-friendly graph: center 0 connected to 1,2,3. A net on {1,2,3}
	// must form a 3-edge Steiner tree through 0.
	g := graph.New(4, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	in := &problem.Instance{
		G:    g,
		Nets: []problem.Net{{Terminals: []int{1, 2, 3}}},
	}
	in.RebuildNetGroups()
	routes, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(routes[0]) != 3 {
		t.Errorf("Steiner tree = %v, want all 3 spokes", routes[0])
	}
	if err := problem.ValidateRouting(in, routes); err != nil {
		t.Fatal(err)
	}
}

func TestRouteDisconnectedTerminalsError(t *testing.T) {
	g := graph.New(4, 1)
	g.AddEdge(0, 1)
	in := &problem.Instance{
		G:    g,
		Nets: []problem.Net{{Terminals: []int{0, 3}}},
	}
	in.RebuildNetGroups()
	if _, _, err := Route(context.Background(), in, Options{}); err == nil {
		t.Error("expected error for disconnected terminals")
	}
}

func TestRouteRandomAlwaysValid(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in := randomInstance(12, 10, 60, 25, seed)
		routes, _, err := Route(context.Background(), in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := problem.ValidateRouting(in, routes); err != nil {
			t.Fatalf("seed %d: invalid routing: %v", seed, err)
		}
	}
}

func TestRouteDeterministic(t *testing.T) {
	in := randomInstance(10, 8, 40, 15, 3)
	a, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := range a {
		if len(a[n]) != len(b[n]) {
			t.Fatalf("net %d differs between runs", n)
		}
		for k := range a[n] {
			if a[n][k] != b[n][k] {
				t.Fatalf("net %d edge %d differs between runs", n, k)
			}
		}
	}
}

func TestRipUpNeverWorsensEstimate(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomInstance(10, 6, 50, 20, seed+100)
		noRip, _, err := Route(context.Background(), in, Options{RipUpRounds: -1})
		if err != nil {
			t.Fatal(err)
		}
		withRip, _, err := Route(context.Background(), in, Options{RipUpRounds: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := maxPhi(in, withRip), maxPhi(in, noRip); got > want {
			t.Errorf("seed %d: rip-up worsened max φ: %d > %d", seed, got, want)
		}
	}
}

// TestRipUpRoundsStats runs the round cap on an input whose first two
// rounds lower max φ and stick, so the third round runs too.
func TestRipUpRoundsStats(t *testing.T) {
	in := randomInstance(30, 40, 20, 20, 3)
	_, stats, err := Route(context.Background(), in, Options{RipUpRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RipUpRounds != 3 {
		t.Errorf("rounds = %d, want 3", stats.RipUpRounds)
	}
	if stats.RippedNets == 0 {
		t.Error("no nets ripped in 3 rounds")
	}
}

// maxPhi recomputes the Eq. (2) estimate for a finished routing.
func maxPhi(in *problem.Instance, routes problem.Routing) int64 {
	usage := make([]int64, in.G.NumEdges())
	for _, edges := range routes {
		for _, e := range edges {
			usage[e]++
		}
	}
	psi := make([]int64, len(in.Nets))
	for n, edges := range routes {
		for _, e := range edges {
			psi[n] += usage[e]
		}
	}
	var best int64
	for gi := range in.Groups {
		var sum int64
		for _, n := range in.Groups[gi].Nets {
			sum += psi[n]
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

func TestThetaOrderingRoutesCriticalLast(t *testing.T) {
	// Two 2-pin nets 0->2 on a 4-ring. Net 1 is in a heavy group (large
	// θ), net 0 in a light group. Net 0 must be routed first, so when net
	// 1 routes it sees net 0's usage and takes the other side.
	in := &problem.Instance{
		G: ring(4),
		Nets: []problem.Net{
			{Terminals: []int{0, 2}},
			{Terminals: []int{0, 2}},
		},
		Groups: []problem.Group{
			{Nets: []int{0}},
			{Nets: []int{0, 1}}, // heavier: contains both nets
		},
	}
	in.RebuildNetGroups()
	routes, _, err := Route(context.Background(), in, Options{RipUpRounds: -1})
	if err != nil {
		t.Fatal(err)
	}
	shared := map[int]bool{}
	for _, e := range routes[0] {
		shared[e] = true
	}
	for _, e := range routes[1] {
		if shared[e] {
			t.Errorf("nets share edge %d despite free alternative", e)
		}
	}
}

// TestSortByThetaMatchesStableSort checks the (θ, net id) sort against the
// stable sort by θ alone on random θ values drawn from a few values, so
// most nets tie.
func TestSortByThetaMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		theta := make([]int64, n)
		for i := range theta {
			theta[i] = int64(rng.Intn(1 + trial%8))
		}
		got := make([]int, n)
		want := make([]int, n)
		for i := range got {
			got[i], want[i] = i, i
		}
		sortByTheta(got, theta)
		slices.SortStableFunc(want, func(a, b int) int { return cmp.Compare(theta[a], theta[b]) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n %d): order %v, stable sort gives %v", trial, n, got, want)
		}
	}
}

func BenchmarkRouteMedium(b *testing.B) {
	in := randomInstance(40, 60, 2000, 800, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Route(context.Background(), in, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteInitial times the initial-routing layer alone — APSP, the
// terminal MSTs and one congestion-aware search per MST edge — on the seeded
// synopsys01@0.01 instance from internal/gen, with rip-up disabled. Besides
// ns/op it reports ns/search, the op time divided by the searches one
// routing issues: Σ(k−1) over the memoized terminal MSTs.
func BenchmarkRouteInitial(b *testing.B) {
	cfg, err := gen.SuiteConfig("synopsys01", 0.01)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opt := Options{RipUpRounds: -1, Workers: workers}
			searches := 0
			for i := 0; i < b.N; i++ {
				s := NewSession(in, opt)
				if _, _, err := s.Route(context.Background()); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					for _, mst := range s.r.mst {
						searches += len(mst)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(searches), "ns/search")
		})
	}
}
