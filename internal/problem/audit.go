package problem

import (
	"fmt"
	"sort"
)

// Violation is one problem found by AuditSolution.
type Violation struct {
	// Kind classifies the violation.
	Kind ViolationKind
	// Net is the offending net (-1 for edge-level violations).
	Net int
	// Edge is the offending edge (-1 for net-level violations).
	Edge int
	// Detail is a human-readable description.
	Detail string
}

// ViolationKind enumerates audit categories.
type ViolationKind int

// Audit categories.
const (
	// VUnrouted: a multi-terminal net has no edges.
	VUnrouted ViolationKind = iota
	// VBadEdge: an edge id is out of range or duplicated in a route.
	VBadEdge
	// VCycle: a route contains a cycle.
	VCycle
	// VDisconnected: a route misses one of the net's terminals.
	VDisconnected
	// VBadRatio: a ratio is not a positive even integer (or missing).
	VBadRatio
	// VOverload: an edge's reciprocal sum exceeds 1.
	VOverload
)

func (k ViolationKind) String() string {
	switch k {
	case VUnrouted:
		return "unrouted"
	case VBadEdge:
		return "bad-edge"
	case VCycle:
		return "cycle"
	case VDisconnected:
		return "disconnected"
	case VBadRatio:
		return "bad-ratio"
	case VOverload:
		return "overload"
	}
	return fmt.Sprintf("ViolationKind(%d)", int(k))
}

// Audit is the full report of AuditSolution.
type Audit struct {
	Violations []Violation
	// ByKind counts violations per category.
	ByKind map[ViolationKind]int
}

// OK reports a clean audit.
func (a *Audit) OK() bool { return len(a.Violations) == 0 }

// AuditSolution checks everything ValidateSolution checks but collects ALL
// violations instead of stopping at the first — the debugging view for a
// flow that produced an illegal solution. MaxPerKind caps the entries kept
// per category (0 = 100) so a systematically broken solution does not
// produce millions of entries; ByKind always holds exact counts.
func AuditSolution(in *Instance, sol *Solution, maxPerKind int) *Audit {
	if maxPerKind <= 0 {
		maxPerKind = 100
	}
	a := &Audit{ByKind: map[ViolationKind]int{}}
	add := func(v Violation) {
		a.ByKind[v.Kind]++
		if a.ByKind[v.Kind] <= maxPerKind {
			a.Violations = append(a.Violations, v)
		}
	}

	ne := in.G.NumEdges()
	nNets := len(in.Nets)
	if len(sol.Routes) != nNets {
		add(Violation{Kind: VBadEdge, Net: -1, Edge: -1,
			Detail: fmt.Sprintf("routing covers %d nets, instance has %d", len(sol.Routes), nNets)})
		return a
	}
	tc := newTreeCheck(in.G.NumVertices(), ne)
	for n := 0; n < nNets; n++ {
		terms := in.Nets[n].Terminals
		edges := sol.Routes[n]
		ratios := sol.Assign.Ratios[n]
		if len(terms) > 1 && len(edges) == 0 {
			add(Violation{Kind: VUnrouted, Net: n, Edge: -1, Detail: "multi-terminal net has no route"})
			continue
		}
		if len(ratios) != len(edges) {
			add(Violation{Kind: VBadRatio, Net: n, Edge: -1,
				Detail: fmt.Sprintf("%d ratios for %d edges", len(ratios), len(edges))})
		}
		tc.nextRoute()
		broken := false
		for k, e := range edges {
			if e < 0 || e >= ne {
				add(Violation{Kind: VBadEdge, Net: n, Edge: e, Detail: "edge id out of range"})
				broken = true
				continue
			}
			if !tc.addEdge(e) {
				add(Violation{Kind: VBadEdge, Net: n, Edge: e, Detail: "duplicate edge in route"})
				broken = true
				continue
			}
			ed := in.G.Edge(e)
			if !tc.union(ed.U, ed.V) {
				add(Violation{Kind: VCycle, Net: n, Edge: e, Detail: "route contains a cycle"})
				broken = true
			}
			if k < len(ratios) {
				if r := ratios[k]; r < 2 || r%2 != 0 {
					add(Violation{Kind: VBadRatio, Net: n, Edge: e,
						Detail: fmt.Sprintf("ratio %d is not a positive even integer", r)})
				}
			}
		}
		if !broken && len(terms) > 1 {
			root := tc.find(terms[0])
			for _, term := range terms[1:] {
				if tc.find(term) != root {
					add(Violation{Kind: VDisconnected, Net: n, Edge: -1,
						Detail: fmt.Sprintf("terminal %d not connected", term)})
				}
			}
		}
	}

	// Per-edge budgets over whatever ratios are present and legal-ish.
	loads := EdgeLoads(ne, sol.Routes)
	for e, ls := range loads {
		var sum float64
		for _, l := range ls {
			if l.Pos < len(sol.Assign.Ratios[l.Net]) {
				if r := sol.Assign.Ratios[l.Net][l.Pos]; r > 0 {
					sum += 1 / float64(r)
				}
			}
		}
		if sum > 1+1e-9 {
			add(Violation{Kind: VOverload, Net: -1, Edge: e,
				Detail: fmt.Sprintf("reciprocal sum %.6f exceeds 1 over %d nets", sum, len(ls))})
		}
	}
	return a
}

// Summary renders counts per category, most frequent first.
func (a *Audit) Summary() string {
	if a.OK() {
		return "audit clean"
	}
	type kc struct {
		k ViolationKind
		c int
	}
	var kcs []kc
	//lint:ignore maporder the sort below totally orders entries by (count, kind), erasing map order
	for k, c := range a.ByKind {
		kcs = append(kcs, kc{k, c})
	}
	sort.Slice(kcs, func(i, j int) bool {
		if kcs[i].c != kcs[j].c {
			return kcs[i].c > kcs[j].c
		}
		return kcs[i].k < kcs[j].k
	})
	out := ""
	for i, e := range kcs {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%d", e.k, e.c)
	}
	return out
}
