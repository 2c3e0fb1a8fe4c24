package problem

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"tdmroute/internal/graph"
)

// The allocation guards pin the cost model of the text I/O and validation
// path: writing and validating allocate a constant number of objects per
// call, and parsing allocates no object per token, so its count stays a
// small fraction of the nets and groups read.

// allocCase builds an instance with the given number of two-terminal nets,
// paired into groups, on a 40-FPGA path with chords, and a legal solution
// routing every net along the path.
func allocCase(nets int) (*Instance, *Solution) {
	const nv = 40
	g := graph.New(nv, 2*nv)
	for v := 0; v+1 < nv; v++ {
		g.AddEdge(v, v+1) // edge v joins v and v+1
	}
	for v := 0; v+5 < nv; v += 5 {
		g.AddEdge(v, v+5)
	}
	rng := rand.New(rand.NewSource(int64(nets)))
	in := &Instance{Name: "alloc", G: g}
	sol := &Solution{}
	for n := 0; n < nets; n++ {
		a := rng.Intn(nv - 4)
		b := a + 1 + rng.Intn(3)
		in.Nets = append(in.Nets, Net{Terminals: []int{b, a}})
		var route []int
		var ratios []int64
		for e := a; e < b; e++ {
			route = append(route, e)
			ratios = append(ratios, int64(2*nets))
		}
		sol.Routes = append(sol.Routes, route)
		sol.Assign.Ratios = append(sol.Assign.Ratios, ratios)
	}
	for n := 0; n+1 < nets; n += 2 {
		in.Groups = append(in.Groups, Group{Nets: []int{n, n + 1}})
	}
	in.RebuildNetGroups()
	return in, sol
}

var allocSizes = []int{100, 1600}

func TestWriteSolutionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, nets := range allocSizes {
		_, sol := allocCase(nets)
		allocs := testing.AllocsPerRun(20, func() {
			if err := WriteSolution(io.Discard, sol); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d nets: %.0f allocations", nets, allocs)
		if allocs > 4 {
			t.Errorf("WriteSolution of %d nets allocates %.0f objects, want at most 4", nets, allocs)
		}
	}
}

func TestValidateRoutingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, nets := range allocSizes {
		in, sol := allocCase(nets)
		if err := ValidateSolution(in, sol); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := ValidateRouting(in, sol.Routes); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d nets: %.0f allocations", nets, allocs)
		if allocs > 6 {
			t.Errorf("ValidateRouting of %d nets allocates %.0f objects, want at most 6", nets, allocs)
		}
	}
}

// TestParseAllocs bounds both parsers' allocations by the lists read
// (c·(nets+groups), c = 1), and their growth between the two sizes by a
// sixteenth of an allocation per added list: every list holds at least two
// tokens, so an allocation per token, or per list, fails it.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	var lists, rows, instAllocs, solAllocs [2]float64
	for i, nets := range allocSizes {
		in, sol := allocCase(nets)
		var inText, solText bytes.Buffer
		if err := WriteInstance(&inText, in); err != nil {
			t.Fatal(err)
		}
		if err := WriteSolution(&solText, sol); err != nil {
			t.Fatal(err)
		}
		lists[i] = float64(len(in.Nets) + len(in.Groups))
		rows[i] = float64(nets)
		instAllocs[i] = testing.AllocsPerRun(10, func() {
			if _, err := ParseInstance("alloc", bytes.NewReader(inText.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		solAllocs[i] = testing.AllocsPerRun(10, func() {
			if _, err := ParseSolution(bytes.NewReader(solText.Bytes()), in.G.NumEdges()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d nets + groups: ParseInstance %.0f, ParseSolution %.0f allocations", int(lists[i]), instAllocs[i], solAllocs[i])
		if instAllocs[i] > lists[i] || solAllocs[i] > rows[i] {
			t.Errorf("%d nets + groups: parsing allocates more than one object per list", int(lists[i]))
		}
	}
	growth := func(a, n [2]float64) float64 { return (a[1] - a[0]) / (n[1] - n[0]) }
	if g := growth(instAllocs, lists); g > 1.0/16 {
		t.Errorf("ParseInstance allocates %.3f objects per added net or group, want at most 1/16", g)
	}
	if g := growth(solAllocs, rows); g > 1.0/16 {
		t.Errorf("ParseSolution allocates %.3f objects per added net, want at most 1/16", g)
	}
}

// TestEdgeLoadsAllocs pins the slab layout of the edge-load index: a fixed
// number of allocations (the counts, the row headers and one backing slab)
// whatever the number of nets and used edges.
func TestEdgeLoadsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	sizes := []int{40, 4000}
	var counts []float64
	for _, edges := range sizes {
		routes := make(Routing, 4*edges)
		for n := range routes {
			for k := 0; k <= n%3; k++ {
				routes[n] = append(routes[n], (n+k)%edges)
			}
		}
		counts = append(counts, testing.AllocsPerRun(20, func() { EdgeLoads(edges, routes) }))
	}
	if counts[0] != counts[1] || counts[1] > 3 {
		t.Errorf("EdgeLoads allocates %v objects at %v used edges, want the same count, at most 3", counts, sizes)
	}
}

// TestEdgeLoadsRowsCapacityClamped appends to one edge's row and requires
// the next used edge's row, carved from the same slab, to be unchanged.
func TestEdgeLoadsRowsCapacityClamped(t *testing.T) {
	loads := EdgeLoads(3, Routing{{0, 1}, {1, 2}, {0}})
	next := append([]EdgeLoad(nil), loads[1]...)
	loads[0] = append(loads[0], EdgeLoad{Net: 99, Pos: 99})
	for i, l := range next {
		if loads[1][i] != l {
			t.Fatalf("append to edge 0's row overwrote edge 1's: %v, want %v", loads[1], next)
		}
	}
}
