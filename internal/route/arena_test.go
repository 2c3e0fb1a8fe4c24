package route

import (
	"context"
	"testing"
)

// TestComputeTreeSteadyStateAllocs guards the arena layout of the KMB path:
// once the worker scratch and the tree arena are warm, computing a net's
// tree allocates nothing per call — the tree lands in the arena chunk and
// every KMB intermediate lives in reused worker buffers. The bound is a
// small fraction rather than zero to tolerate the rare arena-chunk refill,
// which amortizes to well under one allocation per call.
func TestComputeTreeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	in := randomInstance(24, 12, 40, 8, 7)
	s := NewSession(in, Options{})
	if _, _, err := s.Route(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := s.r
	// A multi-terminal net exercises the full KMB union/clean path.
	n := 0
	for i := range in.Nets {
		if len(in.Nets[i].Terminals) > len(in.Nets[n].Terminals) {
			n = i
		}
	}
	run := func() {
		tree, err := r.computeTree(r.w0, n, r.mst[n], r.usage)
		if err != nil {
			t.Fatal(err)
		}
		if len(tree) == 0 {
			t.Fatal("empty tree for a multi-terminal net")
		}
	}
	for i := 0; i < 8; i++ {
		run() // warm the worker scratch and the first arena chunk
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 0.05 {
		t.Errorf("computeTree allocates %.2f objects per call in steady state, want ~0", allocs)
	}
}

// TestRerouteSteadyStateAllocs pins the session-level consequence: a warm
// Reroute of a fixed net costs only the constant per-call bookkeeping (the
// dedup map and the undo snapshot), independent of tree size — the per-edge
// allocations of the pre-arena tree builder are gone.
func TestRerouteSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	in := randomInstance(24, 12, 40, 8, 8)
	s := NewSession(in, Options{})
	ctx := context.Background()
	if _, _, err := s.Route(ctx); err != nil {
		t.Fatal(err)
	}
	nets := []int{1}
	run := func() {
		if err := s.Reroute(ctx, nets); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs > 10 {
		t.Errorf("Reroute allocates %.1f objects per call in steady state, want constant bookkeeping only", allocs)
	}
}
