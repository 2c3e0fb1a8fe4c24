// Spatially partitioned initial routing: the FPGA graph is split into
// regions by recursive FM bisection (internal/partition), nets whose
// terminals all fall inside one region are routed region-locally against
// region-private congestion with the regions fanned out across workers, and
// the remaining nets — region-crossing nets plus any local net whose tree
// escaped its home region — are rerouted sequentially against the merged
// congestion. This is the geometric-partitioning parallelism of the
// large-scale FPGA routers (ParaLarH's partition phase): unlike waves, the
// schedule never feeds back into the result, so the routing is a pure
// function of (instance, Options minus Workers).
package route

import (
	"context"
	"fmt"
	"math"

	"tdmroute/internal/par"
	"tdmroute/internal/partition"
)

// regionSeed is the fixed FM seed of the region former. The regions — and
// with them the partitioned routing — are a pure function of the graph and
// Options.Partitions; exposing the seed would make the routing depend on a
// knob no other stage sees.
const regionSeed = 1

// routePartitioned embeds the θ-ordered nets in Options.Partitions spatial
// regions. Cancellation is checked per region-local net and per merge-phase
// net; as in the other initial-routing paths a cancellation is an error
// because no legal topology exists yet.
func (r *router) routePartitioned(ctx context.Context, order []int) error {
	p := r.opt.partitions()
	parts, err := partition.Regions(r.in.G, p, regionSeed)
	if err != nil {
		return err
	}

	// Classify each net: home region when every terminal lies in one
	// region, -1 for region-crossing nets. Terminal-less nets are trivially
	// local (their tree is empty).
	home := make([]int, len(r.in.Nets))
	for n := range r.in.Nets {
		terms := r.in.Nets[n].Terminals
		if len(terms) == 0 {
			home[n] = 0
			continue
		}
		reg := parts[terms[0]]
		for _, t := range terms[1:] {
			if parts[t] != reg {
				reg = -1
				break
			}
		}
		home[n] = reg
	}

	// Per-region θ-ordered work lists, in one stable pass over order.
	local := make([][]int, p)
	for _, n := range order {
		if reg := home[n]; reg >= 0 {
			local[reg] = append(local[reg], n)
		}
	}

	// Phase A: route each region's local nets sequentially against a
	// region-private congestion array, regions fanned out across workers.
	// A region's result depends only on its own net sequence (worker
	// scratch is reset per search), so which chunk's solver and which
	// goroutine route it cannot affect the routing.
	workers := r.opt.workers()
	nchunks := par.NumChunksMin(p, 1)
	pws := make([]*netWorker, nchunks)
	pws[0] = r.w0
	//lint:ignore ctxflow one-time O(chunks) scratch cloning, not solver iteration; the region loop below checks ctx per net
	for i := 1; i < nchunks; i++ {
		pws[i] = r.w0.clone()
	}
	trees := make([][]int, len(r.in.Nets))
	errs := make([]error, nchunks)
	// Each region routes a whole net sequence: always worth a fork.
	if err := par.ForMinCtx(ctx, p, workers, 1, math.MaxInt, func(chunk, s, e int) {
		w := pws[chunk]
		regUsage := make([]uint64, r.in.G.NumEdges())
		for reg := s; reg < e; reg++ {
			for i := range regUsage {
				regUsage[i] = 0
			}
			for _, n := range local[reg] {
				if err := ctx.Err(); err != nil {
					errs[chunk] = err
					return
				}
				tree, err := r.computeTree(w, n, r.mst[n], regUsage)
				if err != nil {
					errs[chunk] = err
					return
				}
				trees[n] = tree
				for _, e := range tree {
					regUsage[e]++
				}
			}
		}
	}); err != nil {
		return fmt.Errorf("route: initial routing interrupted: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			if ctx.Err() != nil {
				return fmt.Errorf("route: initial routing interrupted: %w", ctx.Err())
			}
			return err
		}
	}

	// Deterministic merge: commit the regional trees in global θ-order.
	// Summed usage is order-independent, but the order still fixes every
	// observable intermediate state.
	for _, n := range order {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("route: initial routing interrupted: %w", err)
		}
		if home[n] >= 0 {
			r.commit(n, trees[n])
			r.stats.RoutedNets++
		}
	}

	// Boundary-conflict resolution: a local net whose tree left its home
	// region (congestion pushed a path through another region's territory)
	// was routed blind to that region's load, exactly like a crossing net.
	// Rip those escapees and reroute them with the crossing nets, in global
	// θ-order, against the merged congestion.
	merge := make([]int, 0, len(order)/4) // θ-ordered phase-B nets
	for _, n := range order {
		if home[n] < 0 {
			merge = append(merge, n)
			continue
		}
		escaped := false
		for _, e := range r.routes[n] {
			ends := r.in.G.Edge(e)
			if parts[ends.U] != home[n] || parts[ends.V] != home[n] {
				escaped = true
				break
			}
		}
		if escaped {
			for _, e := range r.routes[n] {
				r.usage[e]--
			}
			r.routes[n] = nil
			merge = append(merge, n)
			r.stats.RoutedNets--
		}
	}
	for _, n := range merge {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("route: initial routing interrupted: %w", err)
		}
		if err := r.embed(n, r.mst[n], r.usage); err != nil {
			return err
		}
		r.stats.RoutedNets++
	}
	return nil
}
