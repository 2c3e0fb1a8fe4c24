package route

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// routesEqual reports whether two routings are byte-identical.
func routesEqual(a, b problem.Routing) bool {
	if len(a) != len(b) {
		return false
	}
	for n := range a {
		if len(a[n]) != len(b[n]) {
			return false
		}
		for k := range a[n] {
			if a[n][k] != b[n][k] {
				return false
			}
		}
	}
	return true
}

// TestRouteWorkers1IdenticalToSequential asserts that Workers only
// schedules: the routing and stats at Workers=1, 2, 3 and 8 are
// byte-identical to the run with Workers unset, which runs every loop on
// the calling goroutine.
func TestRouteWorkers1IdenticalToSequential(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in := randomInstance(14, 12, 300, 60, 500+seed)
		seq, seqStats, err := Route(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			got, stats, err := Route(context.Background(), in, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !routesEqual(seq, got) {
				t.Fatalf("seed %d: Workers=%d differs from sequential", seed, workers)
			}
			if seqStats != stats {
				t.Fatalf("seed %d: Workers=%d stats differ: %+v vs %+v", seed, workers, seqStats, stats)
			}
		}
	}
}

// TestRouteParallelValidAndDeterministic exercises the wave-parallel router
// across worker counts: every result must be a valid routing,
// byte-identical to the Workers=1 routing of the same instance.
func TestRouteParallelValidAndDeterministic(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				in := randomInstance(14, 12, 400, 80, 600+seed)
				a, _, err := Route(context.Background(), in, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if err := problem.ValidateRouting(in, a); err != nil {
					t.Fatalf("seed %d: invalid: %v", seed, err)
				}
				b, _, err := Route(context.Background(), in, Options{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !routesEqual(a, b) {
					t.Fatalf("seed %d: Workers=%d differs from Workers=1", seed, workers)
				}
			}
		})
	}
}

// TestRouteParallelRace is the race-detector workload of the CI `-race`
// job: a large wave-parallel run with rip-up rounds on top. The graph is
// big enough that each wave's estimated work is above par's grain, so the
// waves fork and the race detector sees concurrent embedding; the chunk
// hook checks that two chunks were indeed in flight at once. On this input
// the first two rip-up rounds lower max φ and stick, and the third is
// reverted, so both the accept and the revert path run. The forked routing
// must equal the inline one at Workers=1.
func TestRouteParallelRace(t *testing.T) {
	in := randomInstance(200, 3000, 1500, 300, 84)
	opt := Options{Workers: 8, RipUpRounds: 3}
	overlapped := watchOverlap(t)
	routes, stats, err := Route(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RipUpRounds != 3 || stats.RevertedRound != 1 {
		t.Fatalf("rip-up ran %d rounds with %d reverted, want 3 with 1: the input no longer keeps its rounds", stats.RipUpRounds, stats.RevertedRound)
	}
	if err := problem.ValidateRouting(in, routes); err != nil {
		t.Fatal(err)
	}
	if !overlapped() {
		t.Fatal("no two chunks were ever in flight at once: the waves ran inline")
	}
	opt.Workers = 1
	inline, _, err := Route(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !routesEqual(routes, inline) {
		t.Fatal("forked routing at Workers=8 differs from the inline one at Workers=1")
	}
}

// watchOverlap installs a chunk hook that holds each chunk at its entry
// until a second chunk enters too, or briefly times out, and reports
// whether two chunks ever met there. Once they have, the hook stops
// holding. The hook is removed when the test ends.
func watchOverlap(t *testing.T) (overlapped func() bool) {
	var waiting atomic.Int32
	var met atomic.Bool
	par.SetChunkHook(func(int) {
		if met.Load() {
			return
		}
		if waiting.Add(1) >= 2 {
			met.Store(true)
		}
		for deadline := time.Now().Add(10 * time.Millisecond); !met.Load() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		waiting.Add(-1)
	})
	t.Cleanup(func() { par.SetChunkHook(nil) })
	return met.Load
}

// TestRerouteNetsDuplicatesIgnored is the regression test for the usage
// underflow: passing the same net index twice must behave exactly like
// passing it once (formerly the double rip decremented — and wrapped — the
// uint32 usage of the net's edges, poisoning the congestion costs).
func TestRerouteNetsDuplicatesIgnored(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		in := randomInstance(12, 10, 60, 25, 800+seed)
		base, _, err := Route(context.Background(), in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		withDup := base.Clone()
		if err := RerouteNets(context.Background(), in, withDup, []int{1, 5, 1, 9, 5, 1}, Options{}); err != nil {
			t.Fatal(err)
		}
		deduped := base.Clone()
		if err := RerouteNets(context.Background(), in, deduped, []int{1, 5, 9}, Options{}); err != nil {
			t.Fatal(err)
		}
		if !routesEqual(withDup, deduped) {
			t.Fatalf("seed %d: duplicate net list changed the result", seed)
		}
		if err := problem.ValidateRouting(in, withDup); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRerouteNetsOutOfRange asserts index validation happens before any
// state is touched.
func TestRerouteNetsOutOfRange(t *testing.T) {
	in := randomInstance(8, 5, 10, 4, 1)
	routes, _, err := Route(context.Background(), in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := RerouteNets(context.Background(), in, routes, []int{0, 10}, Options{}); err == nil {
		t.Error("out-of-range net index accepted")
	}
	if err := RerouteNets(context.Background(), in, routes, []int{-1}, Options{}); err == nil {
		t.Error("negative net index accepted")
	}
}

func BenchmarkRouteParallel(b *testing.B) {
	in := randomInstance(40, 60, 4000, 1200, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := Route(context.Background(), in, Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
