package tdm

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tdmroute/internal/graph"
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// ringGraph builds an n-cycle whose edge k connects vertices k and (k+1)%n.
func ringGraph(n int) *graph.Graph {
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddEdge(i, (i+1)%n)
	}
	return g
}

func TestParallelLRMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 5; trial++ {
		in, routes := randomAssignInstance(rng)
		serial, zs, lbs, is, cs, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 800})
		par, zp, lbp, ip, cp, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 800, Workers: 4})
		// The chunk partition does not depend on Workers, so the
		// arithmetic is bit-identical.
		if zs != zp || lbs != lbp || is != ip || cs != cp {
			t.Fatalf("trial %d: serial (z=%g lb=%g it=%d) vs parallel (z=%g lb=%g it=%d)",
				trial, zs, lbs, is, zp, lbp, ip)
		}
		for n := range serial {
			for k := range serial[n] {
				if serial[n][k] != par[n][k] {
					t.Fatalf("trial %d: ratio mismatch at net %d pos %d", trial, n, k)
				}
			}
		}
	}
}

func TestParallelLRLargeInstanceClose(t *testing.T) {
	// Above the chunking threshold (2500 groups split into par.MaxChunks
	// partial sums at every worker count) z, LB, the iteration count and
	// every ratio must still be bit-identical: the partials associate the
	// same way whatever Workers is.
	in, routes := bigSyntheticTopology(4000, 300, 2500)
	if par.NumChunks(len(in.Groups)) < 2 {
		t.Fatal("the instance no longer splits the λ total into chunks")
	}
	serial, zs, lbs, is, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 200})
	for _, workers := range []int{2, 3, 8} {
		ratios, zp, lbp, ip, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 200, Workers: workers})
		if zs != zp || lbs != lbp || is != ip {
			t.Fatalf("workers=%d: serial z=%g lb=%g it=%d vs z=%g lb=%g it=%d", workers, zs, lbs, is, zp, lbp, ip)
		}
		for n := range serial {
			for k := range serial[n] {
				if math.Float64bits(serial[n][k]) != math.Float64bits(ratios[n][k]) {
					t.Fatalf("workers=%d: ratio mismatch at net %d pos %d", workers, n, k)
				}
			}
		}
	}
}

// TestParallelLRDeterministicAcrossRuns is also the race-detector workload
// of the LR sweeps: the instance has enough routed cells that the pattern
// and net-TDM sweeps are above par's grain and fork, which the chunk hook
// confirms by seeing two chunks in flight at once. The forked runs must
// match each other and the inline run at Workers=1.
func TestParallelLRDeterministicAcrossRuns(t *testing.T) {
	in, routes := bigSyntheticTopology(15000, 300, 9000)
	overlapped := watchOverlap(t)
	_, z1, lb1, it1, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 40, Workers: 6})
	_, z2, lb2, it2, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 40, Workers: 6})
	if z1 != z2 || lb1 != lb2 || it1 != it2 {
		t.Fatalf("same worker count differs across runs: z %g/%g lb %g/%g it %d/%d",
			z1, z2, lb1, lb2, it1, it2)
	}
	_, z3, lb3, it3, _, _ := RunLR(context.Background(), in, routes, Options{Epsilon: 1e-4, MaxIter: 40, Workers: 1})
	if z1 != z3 || lb1 != lb3 || it1 != it3 {
		t.Fatalf("Workers=6 differs from Workers=1: z %g/%g lb %g/%g it %d/%d",
			z1, z3, lb1, lb3, it1, it3)
	}
	if !overlapped() {
		t.Fatal("no two chunks were ever in flight at once: the sweeps ran inline")
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

// bigSyntheticTopology builds a wide instance (many nets over a ring) that
// exceeds the parallel chunking threshold.
func bigSyntheticTopology(nets, vertices, groups int) (*problem.Instance, problem.Routing) {
	rng := rand.New(rand.NewSource(123))
	netList := make([]problem.Net, nets)
	routes := make(problem.Routing, nets)
	for i := 0; i < nets; i++ {
		u := rng.Intn(vertices)
		span := 1 + rng.Intn(4)
		netList[i].Terminals = []int{u, (u + span) % vertices}
		edges := make([]int, span)
		for k := 0; k < span; k++ {
			edges[k] = (u + k) % vertices // ring edge ids
		}
		routes[i] = edges
	}
	groupList := make([]problem.Group, groups)
	for gi := 0; gi < groups; gi++ {
		m := 1 + rng.Intn(4)
		seen := map[int]bool{}
		for j := 0; j < m; j++ {
			n := rng.Intn(nets)
			if !seen[n] {
				seen[n] = true
				groupList[gi].Nets = append(groupList[gi].Nets, n)
			}
		}
		sortInts(groupList[gi].Nets)
	}
	in := &problem.Instance{Name: "big", Nets: netList, Groups: groupList}
	in.G = ringGraph(vertices)
	in.RebuildNetGroups()
	return in, routes
}

func BenchmarkLRParallel(b *testing.B) {
	in, routes := bigSyntheticTopology(40000, 300, 25000)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(benchName(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RunLR(context.Background(), in, routes, Options{Epsilon: 1e-12, MaxIter: 30, Workers: workers})
			}
		})
	}
}

func benchName(workers int) string {
	return "workers-" + string(rune('0'+workers))
}
