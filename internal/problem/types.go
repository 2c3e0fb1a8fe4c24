// Package problem defines the data model of the inter-FPGA routing and TDM
// ratio assignment problem (Sec. II-A of the paper, i.e. ICCAD 2019 CAD
// Contest Problem B), together with text I/O, validation, and benchmark
// statistics.
//
// A problem instance is an undirected FPGA graph, a netlist of two- or
// multi-pin nets (terminal sets of FPGAs), and a set of NetGroups, each a
// subset of the netlist. Groups may overlap: a net can belong to any number
// of groups, and a net may belong to none.
package problem

import "tdmroute/internal/graph"

// Net is a signal to be routed between a set of terminal FPGAs.
type Net struct {
	// Terminals are the FPGA vertices the net must connect. The first
	// terminal is conventionally the driver. Terminals are distinct.
	Terminals []int
	// Groups lists the identifiers of the NetGroups containing this net,
	// in increasing order.
	Groups []int
}

// Group is a NetGroup: a set of nets whose TDM ratios are summed to produce
// the group TDM ratio used by the objective.
type Group struct {
	// Nets lists member net identifiers in increasing order. A net may
	// appear in many groups but at most once per group.
	Nets []int
}

// Instance is a full problem instance.
type Instance struct {
	Name   string
	G      *graph.Graph
	Nets   []Net
	Groups []Group
}

// Clone returns a deep copy of the instance's netlist and groups. The FPGA
// graph is shared: it is immutable for the life of an instance, and deep
// copies exist to let one side mutate nets and group membership (an ECO
// delta) while the other stays frozen.
func (in *Instance) Clone() *Instance {
	c := &Instance{Name: in.Name, G: in.G}
	c.Nets = make([]Net, len(in.Nets))
	for i, n := range in.Nets {
		c.Nets[i] = Net{
			Terminals: append([]int(nil), n.Terminals...),
			Groups:    append([]int(nil), n.Groups...),
		}
	}
	c.Groups = make([]Group, len(in.Groups))
	for i, g := range in.Groups {
		c.Groups[i] = Group{Nets: append([]int(nil), g.Nets...)}
	}
	return c
}

// Routing is a routing topology: for each net, the identifiers of the FPGA
// graph edges its Steiner tree uses. Intra-FPGA nets (single-terminal after
// deduplication) have empty edge lists.
type Routing [][]int

// Assignment holds the legalized TDM ratios: Ratios[n][k] is the even
// positive ratio assigned to net n on edge Routing[n][k].
type Assignment struct {
	Ratios [][]int64
}

// Solution couples a routing topology with its TDM ratio assignment.
type Solution struct {
	Routes Routing
	Assign Assignment
}

// Clone returns a deep copy of the routing.
func (r Routing) Clone() Routing {
	c := make(Routing, len(r))
	for i, edges := range r {
		c[i] = append([]int(nil), edges...)
	}
	return c
}

// NumRoutedEdges returns the total number of (net, edge) pairs.
func (r Routing) NumRoutedEdges() int {
	total := 0
	for _, edges := range r {
		total += len(edges)
	}
	return total
}

// EdgeLoad is one entry of a per-edge net index: net n traverses the edge,
// and the edge is the k-th edge of n's route.
type EdgeLoad struct {
	Net int
	Pos int
}

// EdgeLoads inverts a routing into a per-edge index: result[e] lists the
// nets using edge e (the set N_e of the paper) with their route positions.
// The index is ordered by net id, making downstream iteration deterministic.
func EdgeLoads(numEdges int, r Routing) [][]EdgeLoad {
	counts := make([]int, numEdges)
	for _, edges := range r {
		for _, e := range edges {
			counts[e]++
		}
	}
	var total int
	for _, c := range counts {
		total += c
	}
	// Carve every row from one slab, capacity-clamped so the appends below
	// fill it in place and a caller's append reallocates instead of
	// spilling into the next row. Unused edges keep a nil row.
	loads := make([][]EdgeLoad, numEdges)
	backing := make([]EdgeLoad, total)
	for e, c := range counts {
		if c > 0 {
			loads[e], backing = backing[:0:c], backing[c:]
		}
	}
	for n, edges := range r {
		for k, e := range edges {
			loads[e] = append(loads[e], EdgeLoad{Net: n, Pos: k})
		}
	}
	return loads
}
