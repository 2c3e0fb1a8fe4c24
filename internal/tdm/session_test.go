package tdm

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// mutateRoutes rewrites a random subset of 2-terminal routes using freshly
// randomized edge costs and returns the new routing; the input is not
// modified. Some rewritten nets may receive the same path they already had.
func mutateRoutes(rng *rand.Rand, in *problem.Instance, routes problem.Routing) problem.Routing {
	next := append(problem.Routing(nil), routes...)
	costs := make([]uint64, in.G.NumEdges())
	for e := range costs {
		costs[e] = 1 + uint64(rng.Intn(5))
	}
	d := graph.NewDijkstra(in.G)
	for n := range next {
		if rng.Intn(3) != 0 {
			continue
		}
		term := in.Nets[n].Terminals
		path, ok := d.ShortestPath(term[0], term[1], costs, nil)
		if !ok {
			continue
		}
		next[n] = path
	}
	return next
}

func equalI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustLRState builds a fresh state on a routing known to be in range.
func mustLRState(t testing.TB, in *problem.Instance, routes problem.Routing, opt Options) *lrState {
	t.Helper()
	s := new(lrState)
	if err := s.build(in, routes, opt); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameFloat compares bit patterns: the session path must reproduce the cold
// path exactly, not merely within a tolerance.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// addNet appends to in a net with the terminals of a random existing net,
// joins it to a random group, and returns routes extended with its route.
func addNet(rng *rand.Rand, in *problem.Instance, routes problem.Routing) problem.Routing {
	src := rng.Intn(len(routes))
	in.Nets = append(in.Nets, problem.Net{Terminals: append([]int(nil), in.Nets[src].Terminals...)})
	gi := rng.Intn(len(in.Groups))
	in.Groups[gi].Nets = append(in.Groups[gi].Nets, len(in.Nets)-1)
	in.RebuildNetGroups()
	return append(routes.Clone(), append([]int(nil), routes[src]...))
}

// TestSessionRunLRMatchesCold runs a reroute sequence through one Session
// and, at every step, through a cold package RunLR, requiring bit-identical
// ratios, objectives, and iteration counts at worker counts 1 and 4. One
// step also appends a net to the instance, so the reused session must
// resize its per-net state and rebuild the group membership.
func TestSessionRunLRMatchesCold(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 8; trial++ {
			in, routes := randomAssignInstance(rng)
			opt := Options{Workers: workers, MaxIter: 40}
			ses := NewSession(in)
			cur := routes
			for step := 0; step < 5; step++ {
				if step == 2 {
					cur = addNet(rng, in, cur)
				}
				wr, wz, wlb, wit, wconv, wstop := ses.RunLR(context.Background(), cur, opt)
				cr, cz, clb, cit, cconv, cstop := RunLR(context.Background(), in, cur, opt)
				if (wstop == nil) != (cstop == nil) {
					t.Fatalf("workers=%d trial %d step %d: stopped %v vs %v", workers, trial, step, wstop, cstop)
				}
				if !sameFloat(wz, cz) || !sameFloat(wlb, clb) || wit != cit || wconv != cconv {
					t.Fatalf("workers=%d trial %d step %d: (z=%v lb=%v it=%d conv=%v) vs cold (z=%v lb=%v it=%d conv=%v)",
						workers, trial, step, wz, wlb, wit, wconv, cz, clb, cit, cconv)
				}
				if len(wr) != len(cr) {
					t.Fatalf("workers=%d trial %d step %d: ratios len %d vs %d", workers, trial, step, len(wr), len(cr))
				}
				for n := range wr {
					if len(wr[n]) != len(cr[n]) {
						t.Fatalf("workers=%d trial %d step %d: net %d ratio len", workers, trial, step, n)
					}
					for k := range wr[n] {
						if !sameFloat(wr[n][k], cr[n][k]) {
							t.Fatalf("workers=%d trial %d step %d: ratio[%d][%d] = %v vs %v",
								workers, trial, step, n, k, wr[n][k], cr[n][k])
						}
					}
				}
				cur = mutateRoutes(rng, in, cur)
			}
		}
	}
}

// TestSessionAssignMatchesCold extends the equivalence through legalization
// and refinement: the full session Assign must reproduce the package Assign
// integer ratios and report on every topology of a reroute sequence.
func TestSessionAssignMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 10; trial++ {
		in, routes := randomAssignInstance(rng)
		opt := Options{MaxIter: 30}
		ses := NewSession(in)
		cur := routes
		for step := 0; step < 3; step++ {
			wa, wrep, werr := ses.Assign(context.Background(), cur, opt)
			ca, crep, cerr := Assign(context.Background(), in, cur, opt)
			if (werr == nil) != (cerr == nil) {
				t.Fatalf("trial %d step %d: err %v vs %v", trial, step, werr, cerr)
			}
			if wrep.GTRMax != crep.GTRMax || wrep.GTRNoRef != crep.GTRNoRef ||
				wrep.Iterations != crep.Iterations || wrep.Converged != crep.Converged {
				t.Fatalf("trial %d step %d: report %+v vs %+v", trial, step, wrep, crep)
			}
			if len(wa.Ratios) != len(ca.Ratios) {
				t.Fatalf("trial %d step %d: ratios len", trial, step)
			}
			for n := range wa.Ratios {
				for k := range wa.Ratios[n] {
					if wa.Ratios[n][k] != ca.Ratios[n][k] {
						t.Fatalf("trial %d step %d: ratio[%d][%d] = %d vs %d",
							trial, step, n, k, wa.Ratios[n][k], ca.Ratios[n][k])
					}
				}
			}
			cur = mutateRoutes(rng, in, cur)
		}
	}
}

// TestSessionSurvivesCancelledRound checks a cancelled round leaves the
// session usable: continuing the sequence must still match cold builds.
func TestSessionSurvivesCancelledRound(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	in, routes := randomAssignInstance(rng)
	opt := Options{MaxIter: 40}
	ses := NewSession(in)
	if _, _, _, _, _, stop := ses.RunLR(context.Background(), routes, opt); stop != nil {
		t.Fatal(stop)
	}
	next := mutateRoutes(rng, in, routes)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ratios, _, _, _, _, stop := ses.RunLR(ctx, next, opt)
	if stop == nil {
		t.Fatal("cancelled round must report the stop cause")
	}
	if ratios == nil {
		t.Fatal("cancelled round must still return the fallback incumbent")
	}
	// The next (uncancelled) round runs on the same session.
	next2 := mutateRoutes(rng, in, next)
	wr, wz, _, _, _, stop := ses.RunLR(context.Background(), next2, opt)
	if stop != nil {
		t.Fatal(stop)
	}
	cr, cz, _, _, _, _ := RunLR(context.Background(), in, next2, opt)
	if !sameFloat(wz, cz) {
		t.Fatalf("post-cancel round diverged: z=%v vs %v", wz, cz)
	}
	for n := range wr {
		for k := range wr[n] {
			if !sameFloat(wr[n][k], cr[n][k]) {
				t.Fatalf("post-cancel ratio[%d][%d] = %v vs %v", n, k, wr[n][k], cr[n][k])
			}
		}
	}
}

// TestSessionBuildZeroAlloc pins the reuse claim: once a session's state
// has been built for two routings of one instance whose routes differ,
// rebuilding it for either allocates nothing.
func TestSessionBuildZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(404))
	in, routes := randomAssignInstance(rng)
	next := mutateRoutes(rng, in, routes)
	differ := false
	for n := range routes {
		differ = differ || !slices.Equal(routes[n], next[n])
	}
	if !differ {
		t.Fatal("mutateRoutes left every route as it was")
	}
	opt := Options{}.withDefaults()
	ses := NewSession(in)
	build := func(r problem.Routing) {
		if err := ses.s.build(in, r, opt); err != nil {
			t.Fatal(err)
		}
	}
	build(routes)
	build(next)
	round := 0
	allocs := testing.AllocsPerRun(100, func() {
		if round%2 == 0 {
			build(routes)
		} else {
			build(next)
		}
		round++
	})
	if allocs != 0 {
		t.Fatalf("reused LR state build allocates %v times per round, want 0", allocs)
	}
}
