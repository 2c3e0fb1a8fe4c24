package route

import (
	"slices"
	"testing"

	"tdmroute/internal/graph"
	"tdmroute/internal/problem"
)

// kmbRef is the reference KMB tree builder: every net searches a private
// uint64 copy of the base congestion, zeroing its own edges as its paths are
// found, and the path union always goes through the Steiner cleaner.
// computeTree must return exactly its trees while reading base in place and
// handing 2-pin paths straight to the arena.
func kmbRef(g *graph.Graph, terms []int, mst []graph.WeightedEdge, base []uint64) ([]int, bool) {
	if len(terms) <= 1 {
		return nil, true
	}
	costs := append([]uint64(nil), base...)
	dij := graph.NewDijkstra(g)
	var union []int
	for _, me := range mst {
		start := len(union)
		var ok bool
		union, ok = dij.ShortestPath(terms[me.U], terms[me.V], costs, union)
		if !ok {
			return nil, false
		}
		for _, e := range union[start:] {
			costs[e] = 0
		}
	}
	return graph.NewSteinerCleaner(g).CleanAppend(nil, union, terms)
}

// fuzzBytes hands out the fuzzer's bytes one at a time, then zeros.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// FuzzKMBTree builds a small connected multigraph, nets of 2 to 8 distinct
// terminals and usage arrays from the fuzzer's bytes, and computes every
// net's tree under every usage array through one reused worker, so stale
// per-net cost state would show. Each KMB tree must equal kmbRef's, and
// KMB may not write to the usage array it searches.
func FuzzKMBTree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 3, 0, 1, 2, 3, 4, 2, 0, 5, 1, 4, 1, 2, 0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte{20, 30, 9, 7, 3, 1, 18, 2, 200, 5, 6, 1, 0, 3, 2, 9, 40, 255, 17, 88, 3})
	f.Add([]byte{12, 8, 0, 0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2})
	// Inputs the fuzzer found against broken variants: a second search
	// reading the previous net's costs, zeroing written into base, and the
	// first path left unfreed.
	f.Add([]byte("1002002100010100"))
	f.Add([]byte("10000000001"))
	f.Add([]byte("2001222120010000110020"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		nv := 2 + int(r.next()%24)
		g := graph.New(nv, 2*nv)
		for v := 1; v < nv; v++ {
			g.AddEdge(int(r.next())%v, v)
		}
		for extra := r.next() % 48; extra > 0; extra-- { // parallel edges and self-loops
			g.AddEdge(int(r.next())%nv, int(r.next())%nv)
		}
		in := &problem.Instance{Name: "fuzz", G: g}
		for nets := 1 + r.next()%6; nets > 0; nets-- {
			k := min(2+int(r.next()%7), nv)
			free := make([]int, nv)
			for i := range free {
				free[i] = i
			}
			terms := make([]int, k)
			for i := range terms {
				j := int(r.next()) % len(free)
				terms[i] = free[j]
				free = slices.Delete(free, j, j+1)
			}
			in.Nets = append(in.Nets, problem.Net{Terminals: terms})
		}
		in.RebuildNetGroups()
		rt := newRouter(in, Options{})
		for round := 0; round < 3; round++ {
			base := make([]uint64, g.NumEdges())
			tiny := r.next()%2 == 0
			for e := range base {
				if tiny { // equal-cost ties everywhere
					base[e] = uint64(r.next() % 3)
				} else {
					base[e] = uint64(r.next())<<8 | uint64(r.next())
				}
			}
			orig := slices.Clone(base)
			for n := range in.Nets {
				terms := in.Nets[n].Terminals
				mst, err := rt.terminalMST(n)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.computeTree(rt.w0, n, mst, base)
				if err != nil {
					t.Fatal(err)
				}
				want, ok := kmbRef(g, terms, mst, orig)
				if !ok {
					t.Fatalf("net %d: reference found no tree", n)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("round %d, net %d (terminals %v): KMB tree %v, reference %v", round, n, terms, got, want)
				}
				if !slices.Equal(base, orig) {
					t.Fatalf("round %d, net %d: KMB wrote to the usage it searched", round, n)
				}
			}
		}
	})
}
