// Wave-parallel routing: the θ-ordered net sequence is split into waves of
// up to waveSize nets; every net of a wave is embedded against a frozen usage
// snapshot by per-goroutine solvers (concurrently when the wave carries enough
// work to pay for a fork, see package par), then the wave's trees are
// merged into the shared usage in wave order. This is the speculative batch
// routing of the parallel-router literature (ParaLarH, and the batched
// net-parallelism of the open-source FPGA routers): nets within one wave do
// not see each other's congestion, which trades a bounded amount of
// congestion feedback for parallelism. The wave length depends on the net
// count only and the merge order is the wave order, so the routing is
// identical for every worker count.
package route

import (
	"context"
	"fmt"

	"tdmroute/internal/graph"
	"tdmroute/internal/par"
)

// waveSize is the most nets a routing wave holds. The wave length is a
// function of the instance only, never of the worker count, so the routing
// is identical for every worker count (ParaLarH fixes its batch the same
// way). Larger waves amortize the per-wave fork-join barrier; smaller waves
// tighten the congestion feedback between nets. Eight is where that
// feedback stops costing quality on boards of synopsys01@0.01 size and up:
// summed GTR_max of cmd/tdmroute over 40 cmd/gen inputs of 43 FPGAs, 214
// edges, 685 nets and 406 groups (seeds 1000004–1000043) was 3350 routing
// one net at a time, and 3340, 3368, 3444 and 3600 with waves of 8, 16, 32
// and 64 nets; over 10 inputs with ten times the nets and groups it was
// 5560, 5558, 5562, 5556 and 5570.
const waveSize = 8

// waveNets is how many nets of the instance each net of a wave stands for,
// so that small boards do not route a large share of their nets blind.
// Over the same 40 seeds and board, summed GTR_max with waves of 1, 2, 4
// and 8 nets was 1868, 1882, 1898 and 1996 at 137 nets and 81 groups, and
// 2240, 2264, 2256 and 2288 at 274 nets and 162 groups (at 70 nets and 41
// groups it was 1826, 1808, 1774 and 1744). One wave net per 64 nets gives
// waves of 1, 2, 4 and 8 at those four sizes, and of 8 from 512 nets on.
const waveNets = 64

// waveLen is the wave length of an instance of n nets.
func waveLen(n int) int { return min(waveSize, max(1, n/waveNets)) }

// buildMSTs fills the r.mst memo table and r.mstCost for every net. Each
// net's terminal MST depends only on the immutable APSP LUT, so nets fan out
// across workers; per-index writes keep the result identical for every
// worker count. On error, the first error of the lowest chunk is returned,
// which is the error of the lowest failing net. The stage is all-or-nothing
// under cancellation: a cancelled context aborts it and the partial MST
// table is discarded with the returned error.
func (r *router) buildMSTs(ctx context.Context) error {
	n := len(r.in.Nets)
	workers := r.opt.workers()
	errs := make([]error, par.NumChunks(n))
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

// routeWaves embeds the ordered nets in waves of waveLen nets. During a wave
// no shared state is mutated: each solver reads the usage array as a
// frozen snapshot and writes only its private scratch and its own
// tree/error slots. The merge then commits the wave's trees in wave order.
// A net's tree depends only on the snapshot, not on which solver computes
// it, so the wave is split into one contiguous run of nets per solver, and
// there are as many solvers as goroutines can use: min(workers, waveLen).
// The context is checked only between waves — a deterministic boundary —
// so a fixed cancellation point yields the same partial progress for every
// worker count; a cancellation mid-initial-routing is an error (no legal
// topology exists yet).
func (r *router) routeWaves(ctx context.Context, order []int) error {
	workers, size, msts := r.opt.workers(), waveLen(len(order)), r.mst
	ws := make([]*netWorker, min(workers, size))
	ws[0] = r.w0
	//lint:ignore ctxflow one-time O(waveSize) scratch cloning, not solver iteration; the wave loop below checks ctx.Err() every wave
	for i := 1; i < len(ws); i++ {
		ws[i] = r.w0.clone()
	}
	trees := make([][]int, size)
	errs := make([]error, len(ws))
	for start := 0; start < len(order); start += size {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("route: initial routing interrupted: %w", err)
		}
		wave := order[start:min(start+size, len(order))]
		par.ForMin(len(ws), workers, 1, r.waveWork(wave), func(_, s, e int) {
			for k := s; k < e; k++ {
				for i := k * len(wave) / len(ws); i < (k+1)*len(wave)/len(ws); i++ {
					n := wave[i]
					tree, err := r.computeTree(ws[k], n, msts[n], r.usage)
					if err != nil {
						errs[k] = err
						break
					}
					trees[i] = tree
				}
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
// search visits up to every arc of the graph, 2·NumEdges.
func (r *router) waveWork(wave []int) int {
	searches := 0
	for _, n := range wave {
		if k := len(r.in.Nets[n].Terminals); k > 1 {
			searches += k - 1
		}
	}
	return searches * 2 * r.in.G.NumEdges()
}
