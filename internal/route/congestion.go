// Incremental ψ/φ(g) congestion accounting for the rip-up loop of
// Sec. III-B. The cold implementation rescans every net's route twice per
// round (phiAll before and after the reroute); the index instead maintains
// ψ(n) and φ(g) under the round's delta — only the ripped group's old and
// new tree edges are touched. All quantities are integers, so the
// incremental values are exactly equal to a full rescan, and the rip-up
// decisions (arg-max group, accept/revert) are byte-identical to the cold
// path at every worker count.
package route

import (
	"tdmroute/internal/par"
	"tdmroute/internal/problem"
)

// congCell records one (net, route-position) incidence on an edge:
// r.routes[net][pos] is the edge the cell lives on.
type congCell struct {
	net, pos int32
}

// congIndex maintains, for the router it is bound to:
//
//	cells[e]   — the nets currently routed over edge e (ψ incidence),
//	cellIdx[n] — back-pointers: cellIdx[n][pos] locates net n's cell for
//	             its pos-th route edge inside cells[routes[n][pos]],
//	psi[n]     — ψ(n) of Eq. (2),
//	phi[g]     — φ(g) of Eq. (2).
//
// The back-pointers make ripping a net out of the incidence O(route length)
// with O(1) swap-removals. flush folds one rip-up round's changes in;
// unflush restores the pre-round values after a revert using the undo log
// recorded by flush.
type congIndex struct {
	r       *router
	cells   [][]congCell
	cellIdx [][]int32
	psi     []int64
	phi     []int64

	// Per-flush scratch, epoch-stamped so no per-round clearing of the
	// dense arrays is needed.
	delta       []int32 // per edge: member cells added minus removed
	deltaStamp  []uint32
	deltaList   []int
	memberStamp []uint32
	groupStamp  []uint32
	epoch       uint32

	// Undo log of the last flush, consumed by unflush.
	undoPsi []netVal
	undoPhi []grpVal
}

type netVal struct {
	net int
	val int64
}

type grpVal struct {
	grp int
	val int64
}

// newCongIndex builds the index from the router's current routing. ψ and φ
// are computed with the same integer reductions as phiAll, so the initial
// values match a cold rescan exactly.
func newCongIndex(r *router) *congIndex {
	numEdges := r.in.G.NumEdges()
	c := &congIndex{
		r:           r,
		cells:       make([][]congCell, numEdges),
		cellIdx:     make([][]int32, len(r.in.Nets)),
		delta:       make([]int32, numEdges),
		deltaStamp:  make([]uint32, numEdges),
		memberStamp: make([]uint32, len(r.in.Nets)),
		groupStamp:  make([]uint32, len(r.in.Groups)),
	}
	// The same disjoint-index integer sweeps as phiAll, with ψ retained.
	workers := r.opt.workers()
	psiWork, phiWork := r.sweepWork()
	c.psi = make([]int64, len(r.in.Nets))
	par.For(len(c.psi), workers, psiWork, func(_, start, end int) {
		for n := start; n < end; n++ {
			c.psi[n] = r.psi(n)
		}
	})
	c.phi = make([]int64, len(r.in.Groups))
	par.For(len(c.phi), workers, phiWork, func(_, start, end int) {
		for gi := start; gi < end; gi++ {
			var sum int64
			for _, n := range r.in.Groups[gi].Nets {
				sum = problem.SatAdd64(sum, c.psi[n])
			}
			c.phi[gi] = sum
		}
	})
	for n := range r.in.Nets {
		c.insertNet(n)
	}
	return c
}

// insertNet adds net n's current route to the incidence.
func (c *congIndex) insertNet(n int) {
	route := c.r.routes[n]
	idx := c.cellIdx[n]
	if cap(idx) < len(route) {
		idx = make([]int32, len(route))
	} else {
		idx = idx[:len(route)]
	}
	for pos, e := range route {
		idx[pos] = int32(len(c.cells[e]))
		c.cells[e] = append(c.cells[e], congCell{net: int32(n), pos: int32(pos)})
	}
	c.cellIdx[n] = idx
}

// removeNet removes the incidence cells of the given route of net n (the
// route is passed explicitly because r.routes[n] may already point at the
// replacement). Each removal swaps the last cell of the edge into the hole
// and fixes that cell's back-pointer.
func (c *congIndex) removeNet(n int, route []int) {
	idx := c.cellIdx[n]
	for pos, e := range route {
		cs := c.cells[e]
		i := idx[pos]
		last := len(cs) - 1
		moved := cs[last]
		cs[i] = moved
		c.cells[e] = cs[:last]
		if int(moved.net) != n || int(moved.pos) != pos {
			c.cellIdx[moved.net][moved.pos] = i
		}
	}
}

// bumpEpoch starts a fresh stamp scope, handling wrap-around.
func (c *congIndex) bumpEpoch() {
	c.epoch++
	if c.epoch == 0 {
		for i := range c.deltaStamp {
			c.deltaStamp[i] = 0
		}
		for i := range c.memberStamp {
			c.memberStamp[i] = 0
		}
		for i := range c.groupStamp {
			c.groupStamp[i] = 0
		}
		c.epoch = 1
	}
}

// addDelta accumulates a member-count change on edge e.
func (c *congIndex) addDelta(e int, d int32) {
	if c.deltaStamp[e] != c.epoch {
		c.deltaStamp[e] = c.epoch
		c.delta[e] = 0
		c.deltaList = append(c.deltaList, e)
	}
	c.delta[e] += d
}

// flush folds one completed rip-up round into the index: the members'
// routes changed from saved[i] to r.routes[members[i]], and r.usage is
// final. ψ of each member is recomputed directly from its new route; ψ of
// every other net changes exactly by Σ over its cells on dirty edges of the
// edge's usage delta (its own route is unchanged, and only dirty edges
// changed usage). φ follows from the per-net deltas through each net's
// group list. An undo log of every overwritten ψ/φ value is recorded for
// unflush.
func (c *congIndex) flush(members []int, saved [][]int) {
	r := c.r
	c.bumpEpoch()
	c.deltaList = c.deltaList[:0]
	c.undoPsi = c.undoPsi[:0]
	c.undoPhi = c.undoPhi[:0]

	// Swap the members' incidence cells and accumulate per-edge usage
	// deltas (usage[e] changed by exactly the member-count change on e).
	for i, n := range members {
		c.memberStamp[n] = c.epoch
		c.removeNet(n, saved[i])
		for _, e := range saved[i] {
			c.addDelta(e, -1)
		}
	}
	for _, n := range members {
		c.insertNet(n)
		for _, e := range r.routes[n] {
			c.addDelta(e, +1)
		}
	}

	// Non-member ψ deltas via the dirty edges' current cells.
	for _, e := range c.deltaList {
		d := int64(c.delta[e])
		if d == 0 {
			continue
		}
		for _, cell := range c.cells[e] {
			n := int(cell.net)
			if c.memberStamp[n] == c.epoch {
				continue
			}
			c.applyPsiDelta(n, d)
		}
	}

	// Member ψ recomputed directly against the final usage.
	for _, n := range members {
		c.applyPsiDelta(n, r.psi(n)-c.psi[n])
	}
}

// applyPsiDelta shifts ψ(n) by d and propagates the change to every group
// containing n, recording undo entries the first time a value is touched
// this flush.
func (c *congIndex) applyPsiDelta(n int, d int64) {
	if d == 0 {
		return
	}
	c.undoPsi = append(c.undoPsi, netVal{net: n, val: c.psi[n]})
	c.psi[n] = problem.SatAdd64(c.psi[n], d)
	for _, gi := range c.r.in.Nets[n].Groups {
		if c.groupStamp[gi] != c.epoch {
			c.groupStamp[gi] = c.epoch
			c.undoPhi = append(c.undoPhi, grpVal{grp: gi, val: c.phi[gi]})
		}
		c.phi[gi] = problem.SatAdd64(c.phi[gi], d)
	}
}

// unflush reverts the last flush after the round was rejected: the members'
// routes are already restored to their saved trees (newRoutes are the
// rejected trees still present in the incidence), and the ψ/φ undo log is
// replayed in reverse so nets touched more than once end at their
// pre-round values.
func (c *congIndex) unflush(members []int, newRoutes [][]int) {
	for i, n := range members {
		c.removeNet(n, newRoutes[i])
	}
	for _, n := range members {
		c.insertNet(n)
	}
	for i := len(c.undoPsi) - 1; i >= 0; i-- {
		c.psi[c.undoPsi[i].net] = c.undoPsi[i].val
	}
	for i := len(c.undoPhi) - 1; i >= 0; i-- {
		c.phi[c.undoPhi[i].grp] = c.undoPhi[i].val
	}
	c.undoPsi = c.undoPsi[:0]
	c.undoPhi = c.undoPhi[:0]
}
