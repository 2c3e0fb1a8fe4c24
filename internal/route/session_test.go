package route

import (
	"context"
	"math/rand"
	"testing"

	"tdmroute/internal/problem"
)

// equalRouting compares two routings edge-for-edge.
func equalRouting(a, b problem.Routing) bool {
	if len(a) != len(b) {
		return false
	}
	for n := range a {
		if len(a[n]) != len(b[n]) {
			return false
		}
		for i := range a[n] {
			if a[n][i] != b[n][i] {
				return false
			}
		}
	}
	return true
}

// TestCongIndexMatchesRescan drives rip-up rounds on random instances while
// cross-checking the incremental φ against a full phiAll rescan after every
// round — covering both the accept (flush) and revert (unflush) paths.
func TestCongIndexMatchesRescan(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in := randomInstance(12, 10, 80, 30, seed+500)
		r := newRouter(in, Options{})
		if err := r.initialRoute(context.Background()); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			improved, err := r.ripUpWorstGroup(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := r.phiAll()
			got := r.cong.phi
			if len(got) != len(want) {
				t.Fatalf("seed %d round %d: phi len %d want %d", seed, round, len(got), len(want))
			}
			for gi := range want {
				if got[gi] != want[gi] {
					t.Fatalf("seed %d round %d: phi[%d]=%d, rescan=%d (improved=%v)",
						seed, round, gi, got[gi], want[gi], improved)
				}
			}
			// ψ must match a direct rescan too.
			for n := range in.Nets {
				if r.cong.psi[n] != r.psi(n) {
					t.Fatalf("seed %d round %d: psi[%d]=%d, rescan=%d", seed, round, n, r.cong.psi[n], r.psi(n))
				}
			}
			if !improved {
				break
			}
		}
	}
}

// TestSessionRouteMatchesColdRoute pins the wrapper equivalence: the
// package-level Route and a fresh Session produce identical topologies.
func TestSessionRouteMatchesColdRoute(t *testing.T) {
	for _, workers := range []int{1, 4} {
		in := randomInstance(12, 10, 80, 30, 42)
		cold, coldStats, err := Route(context.Background(), in, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(in, Options{Workers: workers})
		warm, warmStats, err := s.Route(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !equalRouting(cold, warm) {
			t.Fatalf("workers=%d: session routing differs from cold Route", workers)
		}
		if coldStats != warmStats {
			t.Fatalf("workers=%d: stats %+v vs %+v", workers, warmStats, coldStats)
		}
		if _, _, err := s.Route(context.Background()); err == nil {
			t.Fatal("second Route on a session must fail")
		}
	}
}

// TestSessionRerouteMatchesColdRerouteNets reroutes the same net sets
// through the cold RerouteNets wrapper and through one reused Session,
// checking the topologies stay identical after every step. This is the
// session-reuse half of the byte-identity invariant: memoized MSTs and
// reused search engines must not change a single edge choice.
func TestSessionRerouteMatchesColdRerouteNets(t *testing.T) {
	in := randomInstance(12, 10, 80, 30, 77)
	base, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}

	coldRoutes := append(problem.Routing(nil), base...)
	s, err := NewSessionFromRouting(in, base, Options{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	for step := 0; step < 10; step++ {
		gi := rng.Intn(len(in.Groups))
		nets := in.Groups[gi].Nets
		if err := RerouteNets(context.Background(), in, coldRoutes, nets, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Reroute(context.Background(), nets); err != nil {
			t.Fatal(err)
		}
		if !equalRouting(coldRoutes, s.Routes()) {
			t.Fatalf("step %d: session reroute diverged from cold RerouteNets", step)
		}
	}
}

// TestSessionUndoReroute checks that UndoReroute restores both the routes
// and the usage-derived behavior exactly: rerouting after an undo behaves
// as if the undone reroute never happened.
func TestSessionUndoReroute(t *testing.T) {
	in := randomInstance(10, 8, 60, 20, 5)
	base, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSessionFromRouting(in, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Routes()
	usageBefore := append([]uint64(nil), s.r.usage...)

	nets := in.Groups[0].Nets
	if err := s.Reroute(context.Background(), nets); err != nil {
		t.Fatal(err)
	}
	s.UndoReroute()

	if !equalRouting(before, s.Routes()) {
		t.Fatal("UndoReroute did not restore the topology")
	}
	for e, u := range s.r.usage {
		if u != usageBefore[e] {
			t.Fatalf("UndoReroute left usage[%d]=%d, want %d", e, u, usageBefore[e])
		}
	}
	// A second undo must be a no-op.
	s.UndoReroute()
	if !equalRouting(before, s.Routes()) {
		t.Fatal("double UndoReroute corrupted the topology")
	}
}

// TestSessionRerouteRollbackOnCancel checks the in-place Reroute leaves the
// session consistent when cancelled mid-call.
func TestSessionRerouteRollbackOnCancel(t *testing.T) {
	in := randomInstance(10, 8, 60, 20, 6)
	base, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSessionFromRouting(in, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Routes()
	usageBefore := append([]uint64(nil), s.r.usage...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nets := in.Groups[0].Nets
	if err := s.Reroute(ctx, nets); err == nil {
		t.Fatal("cancelled Reroute must return an error")
	}
	if !equalRouting(before, s.Routes()) {
		t.Fatal("cancelled Reroute did not roll back the topology")
	}
	for e, u := range s.r.usage {
		if u != usageBefore[e] {
			t.Fatalf("cancelled Reroute left usage[%d]=%d, want %d", e, u, usageBefore[e])
		}
	}
	// The session must remain usable.
	if err := s.Reroute(context.Background(), nets); err != nil {
		t.Fatalf("session unusable after rollback: %v", err)
	}
}
