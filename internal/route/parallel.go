// Wave-parallel routing: the θ-ordered net sequence is split into fixed
// waves; every net of a wave is embedded against a frozen usage snapshot
// by per-worker solvers (concurrently when the wave carries enough work to
// pay for a fork, see package par), then the wave's trees are merged into
// the shared usage in wave order. This is the speculative batch
// routing of the parallel-router literature (ParaLarH, and the batched
// net-parallelism of the open-source FPGA routers): nets within one wave do
// not see each other's congestion, which trades a bounded amount of
// congestion feedback for near-linear scaling, while the deterministic wave
// partition and merge order keep the result reproducible for a fixed
// worker count.
package route

import (
	"context"
	"fmt"

	"tdmroute/internal/graph"
	"tdmroute/internal/par"
)

// waveFactor sizes routing waves at waveFactor nets per worker: larger
// waves amortize the per-wave fork-join barrier, smaller waves tighten the
// congestion feedback between nets.
const waveFactor = 4

// buildMSTs fills the r.mst memo table and r.mstCost for every net. Each
// net's terminal MST depends only on the immutable APSP LUT, so nets fan out
// across workers; per-index writes keep the result identical to the
// sequential pass for every worker count. On error, the first error of the
// lowest chunk is returned (the same net-order-first error as the sequential
// pass when Workers <= 1). The stage is all-or-nothing under cancellation: a
// cancelled context aborts it and the partial MST table is discarded with
// the returned error.
func (r *router) buildMSTs(ctx context.Context) error {
	n := len(r.in.Nets)
	workers := r.opt.workers()
	errs := make([]error, par.NumChunks(n, workers))
	// A k-terminal net's MST looks up and sorts its k(k-1)/2 terminal
	// pairs: about k³ element visits.
	work := 0
	for i := range r.in.Nets {
		k := len(r.in.Nets[i].Terminals)
		work += k * k * k
	}
	if err := par.ForCtx(ctx, n, workers, work, func(chunk, start, end int) {
		var sc mstScratch // private: the shared r.msc would race across chunks
		for i := start; i < end; i++ {
			mst, err := r.terminalMSTScratch(i, &sc)
			if err != nil {
				errs[chunk] = err
				return
			}
			r.mstCost[i] = graph.MSTCost(mst)
		}
	}); err != nil {
		return fmt.Errorf("route: terminal MSTs interrupted: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// routeWaves embeds the ordered nets in waves of workers*waveFactor.
// During a wave no shared state is mutated: workers read the usage array as
// a frozen snapshot and write only their private scratch and their own
// tree/error slots. The merge then commits the wave's trees in wave order.
// The context is checked only between waves — a deterministic boundary —
// so a fixed cancellation point yields the same partial progress for a
// fixed worker count; a cancellation mid-initial-routing is an error (no
// legal topology exists yet).
func (r *router) routeWaves(ctx context.Context, order []int) error {
	workers := r.opt.workers()
	if r.ws == nil {
		r.ws = make([]*netWorker, workers)
		r.ws[0] = r.w0
		//lint:ignore ctxflow one-time O(workers) scratch cloning, not solver iteration; the wave loop below checks ctx.Err() every wave
		for i := 1; i < workers; i++ {
			r.ws[i] = r.w0.clone()
		}
	}
	ws, msts := r.ws, r.mst

	waveSize := workers * waveFactor
	trees := make([][]int, waveSize)
	errs := make([]error, workers)
	for start := 0; start < len(order); start += waveSize {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("route: initial routing interrupted: %w", err)
		}
		end := start + waveSize
		if end > len(order) {
			end = len(order)
		}
		wave := order[start:end]
		par.ForMin(len(wave), workers, 1, r.waveWork(wave), func(chunk, s, e int) {
			w := ws[chunk]
			for i := s; i < e; i++ {
				n := wave[i]
				tree, err := r.computeTree(w, n, r.opt.InitialSteiner, msts[n], r.usage)
				if err != nil {
					errs[chunk] = err
					return
				}
				trees[i] = tree
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for i, n := range wave {
			r.commit(n, trees[i])
			r.stats.RoutedNets++
			trees[i] = nil
		}
	}
	return nil
}

// waveWork estimates the element visits of embedding a wave: KMB runs one
// shortest-path search per terminal-MST edge (k-1 for k terminals), and a
// search visits up to every arc of the graph, 2·NumEdges. Mehlhorn's
// construction searches once from all terminals, so for it the estimate
// errs toward forking.
func (r *router) waveWork(wave []int) int {
	searches := 0
	for _, n := range wave {
		if k := len(r.in.Nets[n].Terminals); k > 1 {
			searches += k - 1
		}
	}
	return searches * 2 * r.in.G.NumEdges()
}
