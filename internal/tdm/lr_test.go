package tdm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
	"tdmroute/internal/stats"
)

// pathInstance builds an instance over a path graph with nv vertices where
// nets and groups are supplied by the caller; routes are provided directly
// so TDM tests are independent of the router.
func pathInstance(nv int, nets []problem.Net, groups []problem.Group) *problem.Instance {
	g := graph.New(nv, nv-1)
	for i := 0; i+1 < nv; i++ {
		g.AddEdge(i, i+1)
	}
	in := &problem.Instance{Name: "path", G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in
}

// singleEdgeInstance: k nets all routed over the single edge of a 2-vertex
// graph, each net in its own group.
func singleEdgeInstance(k int) (*problem.Instance, problem.Routing) {
	nets := make([]problem.Net, k)
	groups := make([]problem.Group, k)
	routes := make(problem.Routing, k)
	for i := 0; i < k; i++ {
		nets[i].Terminals = []int{0, 1}
		groups[i].Nets = []int{i}
		routes[i] = []int{0}
	}
	in := pathInstance(2, nets, groups)
	return in, routes
}

func TestLRSingleEdgeSymmetric(t *testing.T) {
	for _, k := range []int{1, 2, 3, 7, 16} {
		in, routes := singleEdgeInstance(k)
		ratios, z, lb, iters, converged, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-9})
		want := float64(k) // optimal: all nets at ratio k
		if math.Abs(z-want) > 1e-6*want {
			t.Errorf("k=%d: z = %g, want %g", k, z, want)
		}
		if math.Abs(lb-want) > 1e-6*want {
			t.Errorf("k=%d: lb = %g, want %g", k, lb, want)
		}
		if !converged {
			t.Errorf("k=%d: did not converge in %d iterations", k, iters)
		}
		for n := 0; n < k; n++ {
			if math.Abs(ratios[n][0]-want) > 1e-6*want {
				t.Errorf("k=%d net %d: ratio %g, want %g", k, n, ratios[n][0], want)
			}
		}
	}
}

func TestLRSingleEdgeNestedGroups(t *testing.T) {
	// Two nets, groups {n0} and {n0,n1}: optimum minimizes t0+t1 subject
	// to 1/t0+1/t1 <= 1, i.e. t0 = t1 = 2, z = 4.
	nets := []problem.Net{{Terminals: []int{0, 1}}, {Terminals: []int{0, 1}}}
	groups := []problem.Group{{Nets: []int{0}}, {Nets: []int{0, 1}}}
	in := pathInstance(2, nets, groups)
	routes := problem.Routing{{0}, {0}}
	_, z, lb, _, converged, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-7, MaxIter: 2000})
	if !converged {
		t.Fatalf("did not converge: z=%g lb=%g", z, lb)
	}
	if math.Abs(z-4) > 1e-3 {
		t.Errorf("z = %g, want 4", z)
	}
	if lb > z+1e-9 {
		t.Errorf("lb %g exceeds z %g", lb, z)
	}
}

func TestLRWeightedTwoGroups(t *testing.T) {
	// One edge, two nets. Group A = {n0, n0'} where n0' also rides a
	// private edge... simpler: group A = {0} with net 0 on TWO edges
	// (terminals 0..2 on a path), group B = {1} with net 1 on one edge
	// shared with net 0.
	//
	// Path 0-1-2: edges e0=(0,1), e1=(1,2). Net 0 routes {e0,e1},
	// net 1 routes {e1}. Groups {0} and {1}.
	//
	// Optimal relaxed: on e1 pattern (t0,t1) with 1/t0+1/t1 = 1, on e0
	// net 0 alone gets t = 1 (relaxed). z = max(1 + t0, t1). Minimize:
	// 1 + t0 = t1, 1/t0 + 1/t1 = 1 -> t0 = (1+sqrt(5))/2 = φ, t1 = 1+φ.
	nets := []problem.Net{{Terminals: []int{0, 2}}, {Terminals: []int{1, 2}}}
	groups := []problem.Group{{Nets: []int{0}}, {Nets: []int{1}}}
	in := pathInstance(3, nets, groups)
	routes := problem.Routing{{0, 1}, {1}}
	_, z, lb, _, converged, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-7, MaxIter: 5000})
	phi := (1 + math.Sqrt(5)) / 2
	want := 1 + phi
	if !converged {
		t.Fatalf("did not converge: z=%g lb=%g", z, lb)
	}
	if math.Abs(z-want) > 1e-3 {
		t.Errorf("z = %g, want %g", z, want)
	}
	if lb > z+1e-9 || math.Abs(lb-want) > 1e-2 {
		t.Errorf("lb = %g, want ~%g (<= z=%g)", lb, want, z)
	}
}

func TestLRPatternMatchesCauchySchwarz(t *testing.T) {
	// Verify Eq. (13) directly: fixed multipliers (MaxIter=1 performs one
	// pattern generation with the uniform λ).
	in, routes := singleEdgeInstance(3)
	// Make group sizes unequal by adding one net to group 0.
	in.Groups[0].Nets = []int{0, 1}
	in.RebuildNetGroups()
	ratios, _, _, _, _, _ := RunLR(context.Background(), in, routes, Options{MaxIter: 1, Epsilon: 1e-30})
	// λ = 1/3 each; net 1 is in groups 0 and 1, so π = (1/3, 2/3, 1/3).
	pis := []float64{1.0 / 3, 2.0 / 3, 1.0 / 3}
	var s float64
	for _, p := range pis {
		s += math.Sqrt(p)
	}
	for n, p := range pis {
		want := s / math.Sqrt(p)
		if math.Abs(ratios[n][0]-want) > 1e-9 {
			t.Errorf("net %d: ratio %g, want %g", n, ratios[n][0], want)
		}
	}
	// The generated pattern saturates the edge: Σ 1/t == 1.
	var recip float64
	for n := range pis {
		recip += 1 / ratios[n][0]
	}
	if math.Abs(recip-1) > 1e-9 {
		t.Errorf("pattern reciprocal sum = %g, want 1", recip)
	}
}

func TestLRPatternOptimalAmongPerturbations(t *testing.T) {
	// The Cauchy-Schwarz pattern must beat random feasible patterns for
	// the weighted substructure objective Σ π_n t_n with Σ 1/t = 1.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(6)
		pi := make([]float64, k)
		var s float64
		for i := range pi {
			pi[i] = rng.Float64() + 0.01
			s += math.Sqrt(pi[i])
		}
		var opt float64
		for i := range pi {
			opt += pi[i] * (s / math.Sqrt(pi[i]))
		}
		// Random feasible pattern: positive weights scaled so reciprocals
		// sum to exactly 1.
		for p := 0; p < 20; p++ {
			w := make([]float64, k)
			var recip float64
			for i := range w {
				w[i] = rng.Float64() + 0.01
				recip += 1 / w[i]
			}
			var obj float64
			for i := range w {
				obj += pi[i] * (w[i] * recip)
			}
			if obj < opt-1e-9*opt {
				t.Fatalf("trial %d: random pattern %g beats Cauchy-Schwarz %g", trial, obj, opt)
			}
		}
	}
}

func TestLRLowerBoundBelowAnyLegalAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		in, routes := randomAssignInstance(rng)
		_, z, lb, _, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-6, MaxIter: 800})
		if lb > z+1e-6*math.Max(1, z) {
			t.Fatalf("trial %d: lb %g exceeds relaxed z %g", trial, lb, z)
		}
		// Uniform legal assignment: every net on edge e gets ratio
		// 2*ceil(|N_e|/2)... use LegalEven.round(|N_e|).
		loads := problem.EdgeLoads(in.G.NumEdges(), routes)
		ratios := make([][]int64, len(routes))
		for n := range routes {
			ratios[n] = make([]int64, len(routes[n]))
		}
		for _, ls := range loads {
			for _, l := range ls {
				ratios[l.Net][l.Pos] = LegalEven.round(float64(len(ls)))
			}
		}
		sol := &problem.Solution{Routes: routes, Assign: problem.Assignment{Ratios: ratios}}
		if err := problem.ValidateSolution(in, sol); err != nil {
			t.Fatalf("trial %d: uniform assignment invalid: %v", trial, err)
		}
		gtr := maxGroupTDMInt(in, ratios)
		if float64(gtr) < lb-1e-6*lb {
			t.Fatalf("trial %d: legal GTR %d below claimed lower bound %g", trial, gtr, lb)
		}
	}
}

// randomAssignInstance builds a random connected instance with routes
// produced by a trivial router (shortest path by BFS tree walk), adequate
// for TDM-stage tests.
func randomAssignInstance(rng *rand.Rand) (*problem.Instance, problem.Routing) {
	nv := 4 + rng.Intn(8)
	g := graph.New(nv, 2*nv)
	perm := rng.Perm(nv)
	for i := 1; i < nv; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for j := 0; j < nv/2; j++ {
		u, v := rng.Intn(nv), rng.Intn(nv)
		if u != v {
			g.AddEdge(u, v)
		}
	}
	nn := 5 + rng.Intn(30)
	nets := make([]problem.Net, nn)
	routes := make(problem.Routing, nn)
	d := graph.NewDijkstra(g)
	unit := make([]uint64, g.NumEdges())
	for e := range unit {
		unit[e] = 1
	}
	for i := 0; i < nn; i++ {
		u, v := rng.Intn(nv), rng.Intn(nv)
		for v == u {
			v = rng.Intn(nv)
		}
		nets[i].Terminals = []int{u, v}
		path, ok := d.ShortestPath(u, v, unit, nil)
		if !ok {
			panic("unreachable in connected graph")
		}
		routes[i] = path
	}
	ng := 3 + rng.Intn(10)
	groups := make([]problem.Group, ng)
	for gi := 0; gi < ng; gi++ {
		m := 1 + rng.Intn(4)
		seen := map[int]bool{}
		for j := 0; j < m; j++ {
			n := rng.Intn(nn)
			if !seen[n] {
				seen[n] = true
				groups[gi].Nets = append(groups[gi].Nets, n)
			}
		}
		sortInts(groups[gi].Nets)
	}
	in := &problem.Instance{Name: "rand", G: g, Nets: nets, Groups: groups}
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

func maxGroupTDMInt(in *problem.Instance, ratios [][]int64) int64 {
	netTDM := make([]int64, len(in.Nets))
	for n := range ratios {
		for _, t := range ratios[n] {
			netTDM[n] += t
		}
	}
	var best int64
	for gi := range in.Groups {
		var sum int64
		for _, n := range in.Groups[gi].Nets {
			sum += netTDM[n]
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

func TestLRTraceCalled(t *testing.T) {
	in, routes := singleEdgeInstance(4)
	var traced []float64
	RunLR(context.Background(), in, routes, Options{Epsilon: 1e-9, Trace: func(iter int, z, lb float64) {
		if iter != len(traced) {
			t.Errorf("trace iteration %d out of order", iter)
		}
		traced = append(traced, z)
	}})
	if len(traced) == 0 {
		t.Fatal("trace never called")
	}
}

func TestLRNoGroups(t *testing.T) {
	nets := []problem.Net{{Terminals: []int{0, 1}}}
	in := pathInstance(2, nets, nil)
	routes := problem.Routing{{0}}
	ratios, z, lb, _, _, _ := RunLR(context.Background(), in, routes, Options{})
	if z != 0 || lb != 0 {
		t.Errorf("no groups: z=%g lb=%g", z, lb)
	}
	if len(ratios) != 1 || len(ratios[0]) != 1 || ratios[0][0] < 1 {
		t.Errorf("no-group net got no pattern: %v", ratios)
	}
}

// TestRunLRRejectsRoutingLength pins the typed length check: a routing
// with fewer or more nets than the instance is a caller error reported by
// RunLR and Assign, not a contained index panic.
func TestRunLRRejectsRoutingLength(t *testing.T) {
	in, routes := randomAssignInstance(rand.New(rand.NewSource(1)))
	for _, tc := range []struct {
		name string
		bad  problem.Routing
	}{
		{"short", routes[:len(routes)-1]},
		{"long", append(routes.Clone(), routes[0])},
	} {
		name, bad := tc.name, tc.bad
		want := fmt.Sprintf("tdm: routing has %d nets, instance has %d", len(bad), len(in.Nets))
		ratios, _, _, _, _, stopped := RunLR(context.Background(), in, bad, Options{})
		if ratios != nil || stopped == nil || stopped.Error() != want {
			t.Errorf("%s: RunLR = (%v, %v), want nil ratios and %q", name, ratios, stopped, want)
		}
		if _, _, err := Assign(context.Background(), in, bad, Options{}); err == nil || err.Error() != want {
			t.Errorf("%s: Assign error %v, want %q", name, err, want)
		}
	}
}

func TestLRMaxIterZeroStillProducesPattern(t *testing.T) {
	in, routes := singleEdgeInstance(3)
	ratios, z, _, iters, converged, _ := RunLR(context.Background(), in, routes, Options{MaxIter: -1})
	if iters != 0 || converged {
		t.Errorf("iters=%d converged=%v", iters, converged)
	}
	if math.Abs(ratios[0][0]-3) > 1e-9 || math.Abs(z-3) > 1e-9 {
		t.Errorf("uniform pattern expected: ratios=%v z=%g", ratios[0], z)
	}
}

func TestLRConvergesMonotonicallyEnough(t *testing.T) {
	// The dual value must never exceed the primal z at the same iterate,
	// and the final gap must meet epsilon.
	rng := rand.New(rand.NewSource(12))
	in, routes := randomAssignInstance(rng)
	var lastZ, lastLB float64
	_, z, lb, _, converged, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 3000,
		Trace: func(iter int, zi, lbi float64) {
			if lbi > zi+1e-9*math.Max(1, zi) {
				t.Fatalf("iter %d: dual %g above primal %g", iter, lbi, zi)
			}
			lastZ, lastLB = zi, lbi
		}})
	_ = lastZ
	_ = lastLB
	if !converged {
		t.Fatalf("did not converge: z=%g lb=%g", z, lb)
	}
	if (z-lb)/lb > 1e-4+1e-12 {
		t.Errorf("final gap %g exceeds epsilon", (z-lb)/lb)
	}
}

func TestGroupWindowsMatchStatsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const groups, w = 5, 4
	gw := newGroupWindows(groups, w)
	ref := make([]*stats.Window, groups)
	for g := range ref {
		ref[g] = stats.NewWindow(w)
	}
	for step := 0; step < 500; step++ {
		g := rng.Intn(groups)
		x := rng.Float64()
		// zscore must agree with the reference computed from stats.Window
		// BEFORE pushing (Eq. 16 windows the previous samples).
		var want float64
		if ref[g].Len() >= 2 && ref[g].StdDev() > 0 {
			want = (x - ref[g].Mean()) / ref[g].StdDev()
		}
		got := gw.zscore(g, x)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("step %d: zscore %g, want %g", step, got, want)
		}
		gw.push(g, x)
		ref[g].Push(x)
	}
}

func TestUnflattenMatchesRouting(t *testing.T) {
	// A snapshot edgeSum ‖ sqrtPi must unflatten to the per-net layout of
	// the routing, cell (n, k) reading edgeSum[routes[n][k]] / sqrtPi[n].
	nets := []problem.Net{{Terminals: []int{0, 2}}, {Terminals: []int{1, 2}}}
	in := pathInstance(3, nets, nil)
	routes := problem.Routing{{0, 1}, {1}}
	s := mustLRState(t, in, routes, Options{}.withDefaults())
	numEdges := in.G.NumEdges()
	flat := make([]float64, numEdges+len(routes))
	for i := range flat {
		flat[i] = float64(10 + i)
	}
	out := s.unflatten(flat, routes)
	if len(out) != 2 || len(out[0]) != 2 || len(out[1]) != 1 {
		t.Fatalf("shape = %v", out)
	}
	for n := range routes {
		for k, e := range routes[n] {
			if want := flat[e] / flat[numEdges+n]; out[n][k] != want {
				t.Fatalf("net %d pos %d: got %g want %g", n, k, out[n][k], want)
			}
		}
	}
	// The edge-major view lists each edge's nets in ascending order.
	if !equalI32(s.edgeStart, []int32{0, 1, 3}) || !equalI32(s.cellNet, []int32{0, 0, 1}) {
		t.Fatalf("CSR = %v %v", s.edgeStart, s.cellNet)
	}
}

func TestSubgradientRuleSound(t *testing.T) {
	// The subgradient baseline is slow (the paper's motivation for the
	// Sigmoid+SMA rule) but must stay sound: dual never above primal, and
	// the gap must shrink over a budget of iterations.
	rng := rand.New(rand.NewSource(14))
	in, routes := randomAssignInstance(rng)
	var firstGap float64
	_, z, lb, _, _, _ := RunLR(context.Background(), in, routes, Options{
		Epsilon: 1e-12, MaxIter: 2000, Update: UpdateSubgradient,
		Trace: func(iter int, zi, lbi float64) {
			if lbi > zi+1e-9*math.Max(1, zi) {
				t.Fatalf("iter %d: dual %g above primal %g", iter, lbi, zi)
			}
			if iter == 0 {
				firstGap = zi - lbi
			}
		},
	})
	// RunLR reports the best primal and best dual seen; those must
	// bracket and must have improved on the first iterate even though
	// individual subgradient iterates oscillate.
	if lb > z+1e-9*math.Max(1, z) {
		t.Errorf("dual above primal: %g > %g", lb, z)
	}
	if z-lb >= firstGap {
		t.Errorf("subgradient made no best-so-far progress: gap %g -> %g", firstGap, z-lb)
	}
}

func TestSigmoidSMABeatsSubgradientAtFixedBudget(t *testing.T) {
	// Ablation of the Sec. IV-C update rule: at the same iteration budget
	// the Sigmoid+SMA strategy must reach a smaller duality gap than the
	// classic subgradient (totals over several instances absorb noise).
	const budget = 300
	var gapSMA, gapSub float64
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		in, routes := randomAssignInstance(rng)
		_, z1, lb1, _, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-12, MaxIter: budget})
		_, z2, lb2, _, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-12, MaxIter: budget, Update: UpdateSubgradient})
		gapSMA += (z1 - lb1) / math.Max(1, lb1)
		gapSub += (z2 - lb2) / math.Max(1, lb2)
	}
	if gapSMA > gapSub {
		t.Errorf("Sigmoid+SMA gap %g worse than subgradient %g at %d iterations", gapSMA, gapSub, budget)
	}
	t.Logf("relative gaps after %d iters: sigmoid+SMA=%g subgradient=%g", budget, gapSMA, gapSub)
}

func TestLambdaStaysOnSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	in, routes := randomAssignInstance(rng)
	var final []float64
	RunLR(context.Background(), in, routes, Options{Epsilon: 1e-6, MaxIter: 500,
		CaptureLambda: func(l []float64) { final = l }})
	if final == nil {
		t.Fatal("CaptureLambda not called")
	}
	var sum float64
	for _, v := range final {
		if v <= 0 {
			t.Fatalf("multiplier %g not positive", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("multipliers sum to %g, want 1 (KKT projection)", sum)
	}
}
