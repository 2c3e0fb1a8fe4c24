package problem

import (
	"errors"
	"fmt"
)

// ErrDisconnected reports an instance whose FPGA graph cannot carry its
// multi-FPGA nets. It is a semantic (not structural) defect: parsers accept
// such instances, ValidateInstance rejects them, and routers would fail on
// them.
var ErrDisconnected = errors.New("FPGA graph is not connected but multi-FPGA nets exist")

// ValidateInstance checks structural well-formedness of an instance:
// non-empty connected FPGA graph (when any net needs routing), in-range and
// distinct terminals, in-range sorted group members, and consistent
// Net.Groups back-references.
func ValidateInstance(in *Instance) error {
	nv := in.G.NumVertices()
	var dups dupCheck
	for i := range in.Nets {
		terms := in.Nets[i].Terminals
		if len(terms) == 0 {
			return fmt.Errorf("net %d has no terminals", i)
		}
		dups.reset()
		for j, t := range terms {
			if t < 0 || t >= nv {
				return fmt.Errorf("net %d: terminal %d out of range [0,%d)", i, t, nv)
			}
			if dups.seen(terms[:j], t) {
				return fmt.Errorf("net %d: duplicate terminal %d", i, t)
			}
		}
	}
	for gi := range in.Groups {
		members := in.Groups[gi].Nets
		if len(members) == 0 {
			return fmt.Errorf("group %d is empty", gi)
		}
		for j, n := range members {
			if n < 0 || n >= len(in.Nets) {
				return fmt.Errorf("group %d: net %d out of range", gi, n)
			}
			if j > 0 && members[j] <= members[j-1] {
				return fmt.Errorf("group %d: members not sorted/unique at position %d", gi, j)
			}
		}
	}
	// Back-references must match group membership exactly. Walking the
	// groups in order visits net n's groups in the order n.Groups must
	// list them: count them, and note where each list first disagrees.
	count := make([]int, len(in.Nets))
	firstBad := make([]int, len(in.Nets))
	for i := range firstBad {
		firstBad[i] = -1
	}
	for gi := range in.Groups {
		for _, n := range in.Groups[gi].Nets {
			got, j := in.Nets[n].Groups, count[n]
			if j < len(got) && got[j] != gi && firstBad[n] < 0 {
				firstBad[n] = j
			}
			count[n]++
		}
	}
	for i := range in.Nets {
		if got := in.Nets[i].Groups; len(got) != count[i] {
			return fmt.Errorf("net %d: Groups back-reference has %d entries, want %d (call RebuildNetGroups)", i, len(got), count[i])
		}
		if firstBad[i] >= 0 {
			return fmt.Errorf("net %d: Groups back-reference mismatch at %d", i, firstBad[i])
		}
	}
	if needsRouting(in) && !in.G.Connected() {
		return ErrDisconnected
	}
	return nil
}

func needsRouting(in *Instance) bool {
	for i := range in.Nets {
		if len(in.Nets[i].Terminals) > 1 {
			return true
		}
	}
	return false
}

// ValidateRouting checks that routes is a legal topology for in: one route
// per net, edge ids in range, each route a cycle-free connected tree whose
// vertex set contains all the net's terminals, with no duplicate edges.
func ValidateRouting(in *Instance, routes Routing) error {
	if len(routes) != len(in.Nets) {
		return fmt.Errorf("routing has %d nets, instance has %d", len(routes), len(in.Nets))
	}
	ne := in.G.NumEdges()
	var tc *treeCheck
	for n, edges := range routes {
		terms := in.Nets[n].Terminals
		if len(terms) <= 1 {
			if len(edges) != 0 {
				return fmt.Errorf("net %d: single-terminal net has %d edges", n, len(edges))
			}
			continue
		}
		if len(edges) == 0 {
			return fmt.Errorf("net %d: multi-terminal net is unrouted", n)
		}
		if tc == nil {
			tc = newTreeCheck(in.G.NumVertices(), ne)
		}
		tc.nextRoute()
		for _, e := range edges {
			if e < 0 || e >= ne {
				return fmt.Errorf("net %d: edge id %d out of range", n, e)
			}
			if !tc.addEdge(e) {
				return fmt.Errorf("net %d: duplicate edge %d", n, e)
			}
			ed := in.G.Edge(e)
			if !tc.union(ed.U, ed.V) {
				return fmt.Errorf("net %d: route contains a cycle at edge %d", n, e)
			}
		}
		root := tc.find(terms[0])
		for _, t := range terms[1:] {
			if tc.find(t) != root {
				return fmt.Errorf("net %d: terminal %d not connected by route", n, t)
			}
		}
	}
	return nil
}

// treeCheck is the per-route scratch of ValidateRouting and AuditSolution,
// allocated once per call instead of once per net. Both its edge marks and
// its union-find are stamped with the current route's epoch: a vertex whose
// stamp is stale is a singleton, so starting the next route resets nothing.
type treeCheck struct {
	epoch  uint32
	edgeAt []uint32 // edgeAt[e] == epoch: e is in the current route
	vertAt []uint32 // vertAt[v] == epoch: parent[v] and size[v] are live
	parent []int32
	size   []int32
}

func newTreeCheck(nv, ne int) *treeCheck {
	return &treeCheck{
		edgeAt: make([]uint32, ne),
		vertAt: make([]uint32, nv),
		parent: make([]int32, nv),
		size:   make([]int32, nv),
	}
}

// nextRoute empties the edge set and makes every vertex a singleton.
func (c *treeCheck) nextRoute() {
	c.epoch++
	if c.epoch == 0 { // wrapped: stale stamps could collide
		clear(c.edgeAt)
		clear(c.vertAt)
		c.epoch = 1
	}
}

// addEdge adds e to the current route's edge set and reports false when e
// was already in it.
func (c *treeCheck) addEdge(e int) bool {
	if c.edgeAt[e] == c.epoch {
		return false
	}
	c.edgeAt[e] = c.epoch
	return true
}

// find returns the representative of v's set, halving paths.
func (c *treeCheck) find(v int) int {
	if c.vertAt[v] != c.epoch {
		return v
	}
	x := int32(v)
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return int(x)
}

// union merges the sets of u and v by size and reports false when they were
// already one set (the edge closes a cycle).
func (c *treeCheck) union(u, v int) bool {
	ru, rv := c.find(u), c.find(v)
	if ru == rv {
		return false
	}
	c.live(ru)
	c.live(rv)
	if c.size[ru] < c.size[rv] {
		ru, rv = rv, ru
	}
	c.parent[rv] = int32(ru)
	c.size[ru] += c.size[rv]
	return true
}

// live makes the singleton root r's entries valid for the current route.
func (c *treeCheck) live(r int) {
	if c.vertAt[r] != c.epoch {
		c.vertAt[r] = c.epoch
		c.parent[r] = int32(r)
		c.size[r] = 1
	}
}

// ValidateSolution checks routing legality plus the TDM ratio constraints of
// Sec. II-A: every ratio a positive even integer, and on every edge the
// reciprocals of the ratios of the nets routed through it sum to at most 1.
func ValidateSolution(in *Instance, sol *Solution) error {
	if err := ValidateRouting(in, sol.Routes); err != nil {
		return err
	}
	if len(sol.Assign.Ratios) != len(sol.Routes) {
		return fmt.Errorf("assignment has %d nets, routing has %d", len(sol.Assign.Ratios), len(sol.Routes))
	}
	for n, edges := range sol.Routes {
		if len(sol.Assign.Ratios[n]) != len(edges) {
			return fmt.Errorf("net %d: %d ratios for %d edges", n, len(sol.Assign.Ratios[n]), len(edges))
		}
		for k, r := range sol.Assign.Ratios[n] {
			if r < 2 || r%2 != 0 {
				return fmt.Errorf("net %d edge %d: ratio %d is not a positive even integer", n, sol.Routes[n][k], r)
			}
		}
	}
	// Per-edge capacity: sum of reciprocals <= 1. Verified exactly in
	// integers: sum(1/r_i) <= 1  <=>  sum(L/r_i) <= L for L = lcm — too
	// costly; instead verify with float64 and a conservative epsilon, then
	// confirm borderline edges with a big-rational check.
	loads := EdgeLoads(in.G.NumEdges(), sol.Routes)
	for e, ls := range loads {
		var sum float64
		for _, l := range ls {
			sum += 1.0 / float64(sol.Assign.Ratios[l.Net][l.Pos])
		}
		const eps = 1e-9
		if sum > 1+eps {
			return fmt.Errorf("edge %d: reciprocal sum %.12f exceeds 1", e, sum)
		}
		if sum > 1-eps { // borderline: confirm exactly
			if !reciprocalSumAtMostOne(ls, sol.Assign.Ratios) {
				return fmt.Errorf("edge %d: reciprocal sum exceeds 1 (exact check)", e)
			}
		}
	}
	return nil
}

// reciprocalSumAtMostOne checks sum over loads of 1/ratio <= 1 exactly using
// a running fraction num/den in big-int-free form: it maintains the sum as a
// pair (num, den) reduced by GCD at each step. Ratios are bounded (<= 2^40
// in practice) and edges carry at most a few thousand nets, so den fits in
// int64 after reduction in realistic cases; on overflow it falls back to a
// conservative false.
func reciprocalSumAtMostOne(ls []EdgeLoad, ratios [][]int64) bool {
	var num, den int64 = 0, 1
	for _, l := range ls {
		r := ratios[l.Net][l.Pos]
		// sum = num/den + 1/r = (num*r + den) / (den*r)
		nr, ok1 := mulInt64(num, r)
		dr, ok2 := mulInt64(den, r)
		if !ok1 || !ok2 {
			return false
		}
		num = nr + den
		den = dr
		g := gcd64(num, den)
		num /= g
		den /= g
		if num > den {
			return false
		}
	}
	return num <= den
}

func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
