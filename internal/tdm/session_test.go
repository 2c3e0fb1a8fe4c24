package tdm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// mutateRoutes rewrites a random subset of 2-terminal routes using freshly
// randomized edge costs, returning the new routing (the input is not
// modified) and the changed-net list. Some listed nets may receive the same
// path they already had — the Session contract allows that.
func mutateRoutes(rng *rand.Rand, in *problem.Instance, routes problem.Routing) (problem.Routing, []int) {
	next := append(problem.Routing(nil), routes...)
	costs := make([]uint64, in.G.NumEdges())
	for e := range costs {
		costs[e] = 1 + uint64(rng.Intn(5))
	}
	d := graph.NewDijkstra(in.G)
	var changed []int
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
		changed = append(changed, n)
	}
	// Exercise the contract's slack: a listed net with an unchanged route.
	if len(routes) > 0 {
		changed = append(changed, rng.Intn(len(routes)))
	}
	return next, changed
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

// mustLRState is newLRState on a routing known to be in range.
func mustLRState(t testing.TB, in *problem.Instance, routes problem.Routing, opt Options) *lrState {
	t.Helper()
	s, err := newLRState(in, routes, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSessionPatchMatchesColdBuild drives random reroute sequences through
// patch and checks both CSR arrays stay element-for-element equal to a
// cold newLRState build on the same routing. This is the exactness proof of
// the splice: equal arrays plus equal multiplier init make every downstream
// float operation bit-identical.
func TestSessionPatchMatchesColdBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	opt := Options{}.withDefaults()
	for trial := 0; trial < 30; trial++ {
		in, routes := randomAssignInstance(rng)
		ses := &Session{
			in:     in,
			s:      mustLRState(t, in, routes, opt),
			routes: append(problem.Routing(nil), routes...),
		}
		for step := 0; step < 6; step++ {
			next, changed := mutateRoutes(rng, in, ses.routes)
			if err := ses.patch(next, changed); err != nil {
				t.Fatal(err)
			}
			ses.routes = append(ses.routes[:0], next...)
			cold := mustLRState(t, in, next, opt)
			if !equalI32(ses.s.edgeStart, cold.edgeStart) {
				t.Fatalf("trial %d step %d: edgeStart diverged", trial, step)
			}
			if !equalI32(ses.s.cellNet, cold.cellNet) {
				t.Fatalf("trial %d step %d: cellNet diverged", trial, step)
			}
		}
	}
}

// sameFloat compares bit patterns: the session path must reproduce the cold
// path exactly, not merely within a tolerance.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestSessionRunLRMatchesCold runs a reroute sequence through one Session
// and, at every step, through a cold package RunLR, requiring bit-identical
// ratios, objectives, and iteration counts at worker counts 1 and 4.
func TestSessionRunLRMatchesCold(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rng := rand.New(rand.NewSource(101))
		for trial := 0; trial < 8; trial++ {
			in, routes := randomAssignInstance(rng)
			opt := Options{Workers: workers, MaxIter: 40}
			ses := NewSession(in)
			cur := routes
			var changed []int
			for step := 0; step < 4; step++ {
				wr, wz, wlb, wit, wconv, wstop := ses.RunLR(context.Background(), cur, changed, opt)
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
				cur, changed = mutateRoutes(rng, in, cur)
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
		var changed []int
		for step := 0; step < 3; step++ {
			wa, wrep, werr := ses.Assign(context.Background(), cur, changed, opt)
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
			cur, changed = mutateRoutes(rng, in, cur)
		}
	}
}

// TestSessionSurvivesCancelledRound checks a cancelled round leaves the
// session consistent: the CSR state was already patched to the round's
// topology, so continuing the sequence must still match cold builds.
func TestSessionSurvivesCancelledRound(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	in, routes := randomAssignInstance(rng)
	opt := Options{MaxIter: 40}
	ses := NewSession(in)
	if _, _, _, _, _, stop := ses.RunLR(context.Background(), routes, nil, opt); stop != nil {
		t.Fatal(stop)
	}
	next, changed := mutateRoutes(rng, in, routes)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ratios, _, _, _, _, stop := ses.RunLR(ctx, next, changed, opt)
	if stop == nil {
		t.Fatal("cancelled round must report the stop cause")
	}
	if ratios == nil {
		t.Fatal("cancelled round must still return the fallback incumbent")
	}
	// The next (uncancelled) round continues from the patched state.
	next2, changed2 := mutateRoutes(rng, in, next)
	wr, wz, _, _, _, stop := ses.RunLR(context.Background(), next2, changed2, opt)
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

// TestSessionPatchZeroAlloc pins the steady-state claim: once the spare
// buffers have grown to the working size, patching an unchanged round and
// resetting the run state allocates nothing.
func TestSessionPatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(404))
	in, routes := randomAssignInstance(rng)
	opt := Options{}.withDefaults()
	ses := &Session{
		in:     in,
		s:      mustLRState(t, in, routes, opt),
		routes: append(problem.Routing(nil), routes...),
	}
	changed := make([]int, len(routes))
	for n := range changed {
		changed[n] = n
	}
	// Warm the scratch and spare buffers.
	for i := 0; i < 3; i++ {
		if err := ses.patch(routes, changed); err != nil {
			t.Fatal(err)
		}
		ses.s.resetRun(opt)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := ses.patch(routes, changed); err != nil {
			t.Fatal(err)
		}
		ses.s.resetRun(opt)
	})
	if allocs != 0 {
		t.Fatalf("patched-LR setup allocates %v times per round, want 0", allocs)
	}
}
