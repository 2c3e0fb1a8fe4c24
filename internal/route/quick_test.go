package route

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"tdmroute/internal/problem"
)

// Property tests: any generated connected instance must route to a valid
// topology under every option combination, and the router must never
// leave inconsistent edge usage behind a revert.

func TestQuickRouteAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(4+rng.Intn(10), rng.Intn(12), 5+rng.Intn(40), rng.Intn(20), seed)
		opt := Options{
			RipUpRounds: []int{-1, 0, 2}[rng.Intn(3)],
			Order:       NetOrder(rng.Intn(2)),
		}
		routes, _, err := Route(context.Background(), in, opt)
		if err != nil {
			return false
		}
		return problem.ValidateRouting(in, routes) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickRipUpUsageConsistent(t *testing.T) {
	// After routing with rip-up (including reverts), recomputing edge
	// usage from the routes must match what an incremental count yields:
	// i.e. ψ/φ computed post-hoc equals maxPhi's recomputation. We check
	// the weaker but sufficient invariant that every edge's usage derived
	// from final routes is consistent with the route sets (no negative or
	// phantom usage is observable through a second full routing pass).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(5+rng.Intn(8), rng.Intn(10), 10+rng.Intn(40), 2+rng.Intn(15), seed)
		r := newRouter(in, Options{})
		if err := r.initialRoute(context.Background()); err != nil {
			return false
		}
		for round := 0; round < 3; round++ {
			if _, err := r.ripUpWorstGroup(context.Background()); err != nil {
				return false
			}
			// usage must equal the recount at every point.
			recount := make([]uint64, in.G.NumEdges())
			for _, edges := range r.routes {
				for _, e := range edges {
					recount[e]++
				}
			}
			for e := range recount {
				if recount[e] != r.usage[e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickRerouteNetsPreservesOthers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(5+rng.Intn(8), rng.Intn(10), 10+rng.Intn(30), 2+rng.Intn(10), seed)
		routes, _, err := Route(context.Background(), in, Options{})
		if err != nil {
			return false
		}
		before := routes.Clone()
		nets := []int{0, len(in.Nets) / 2}
		if err := RerouteNets(context.Background(), in, routes, nets, Options{}); err != nil {
			return false
		}
		// Untouched nets keep their routes verbatim.
		touched := map[int]bool{}
		for _, n := range nets {
			touched[n] = true
		}
		for n := range routes {
			if touched[n] {
				continue
			}
			if len(routes[n]) != len(before[n]) {
				return false
			}
			for k := range routes[n] {
				if routes[n][k] != before[n][k] {
					return false
				}
			}
		}
		return problem.ValidateRouting(in, routes) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
