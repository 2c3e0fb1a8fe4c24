package problem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tdmroute/internal/graph"
)

// randomValidInstance builds a structurally valid instance from a seed.
func randomValidInstance(seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	nv := 2 + rng.Intn(20)
	g := graph.New(nv, 2*nv)
	perm := rng.Perm(nv)
	for i := 1; i < nv; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	nn := 1 + rng.Intn(30)
	nets := make([]Net, nn)
	for i := range nets {
		k := 1 + rng.Intn(minI(4, nv))
		nets[i].Terminals = rng.Perm(nv)[:k]
	}
	ng := rng.Intn(20)
	groups := make([]Group, ng)
	for gi := range groups {
		m := 1 + rng.Intn(4)
		seen := map[int]bool{}
		for j := 0; j < m; j++ {
			n := rng.Intn(nn)
			if !seen[n] {
				seen[n] = true
				groups[gi].Nets = append(groups[gi].Nets, n)
			}
		}
		insertionSortInts(groups[gi].Nets)
	}
	in := &Instance{Name: "q", G: g, Nets: nets, Groups: groups}
	in.RebuildNetGroups()
	return in
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func instancesEquivalent(a, b *Instance) bool {
	if a.G.NumVertices() != b.G.NumVertices() || a.G.NumEdges() != b.G.NumEdges() {
		return false
	}
	for i, e := range a.G.Edges() {
		if b.G.Edges()[i] != e {
			return false
		}
	}
	if len(a.Nets) != len(b.Nets) || len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Nets {
		at, bt := a.Nets[i].Terminals, b.Nets[i].Terminals
		if len(at) != len(bt) {
			return false
		}
		for j := range at {
			if at[j] != bt[j] {
				return false
			}
		}
	}
	for gi := range a.Groups {
		am, bm := a.Groups[gi].Nets, b.Groups[gi].Nets
		if len(am) != len(bm) {
			return false
		}
		for j := range am {
			if am[j] != bm[j] {
				return false
			}
		}
	}
	return true
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		in := randomValidInstance(seed)
		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			return false
		}
		back, err := ParseInstance("q", &buf)
		if err != nil {
			return false
		}
		return instancesEquivalent(in, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		in := randomValidInstance(seed)
		var buf bytes.Buffer
		if err := WriteInstanceJSON(&buf, in); err != nil {
			return false
		}
		back, err := ParseInstanceJSON(&buf)
		if err != nil {
			return false
		}
		return instancesEquivalent(in, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickSolutionRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nn := rng.Intn(20)
		numEdges := 1 + rng.Intn(30)
		sol := &Solution{
			Routes: make(Routing, nn),
			Assign: Assignment{Ratios: make([][]int64, nn)},
		}
		for n := 0; n < nn; n++ {
			k := rng.Intn(minI(5, numEdges+1))
			// Distinct edge ids: a net routing the same edge twice is
			// rejected by the parsers.
			perm := rng.Perm(numEdges)
			for j := 0; j < k; j++ {
				sol.Routes[n] = append(sol.Routes[n], perm[j])
				sol.Assign.Ratios[n] = append(sol.Assign.Ratios[n], int64(2+2*rng.Intn(100)))
			}
		}
		var text, js bytes.Buffer
		if WriteSolution(&text, sol) != nil || WriteSolutionJSON(&js, sol) != nil {
			return false
		}
		a, err := ParseSolution(&text, numEdges)
		if err != nil {
			return false
		}
		b, err := ParseSolutionJSON(&js, numEdges)
		if err != nil {
			return false
		}
		for n := range sol.Routes {
			for j := range sol.Routes[n] {
				if a.Routes[n][j] != sol.Routes[n][j] || b.Routes[n][j] != sol.Routes[n][j] {
					return false
				}
				if a.Assign.Ratios[n][j] != sol.Assign.Ratios[n][j] || b.Assign.Ratios[n][j] != sol.Assign.Ratios[n][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickParserNeverPanics(t *testing.T) {
	// Deterministic fuzz: random byte soup must produce an error, never a
	// panic (panics would fail the test runner).
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("0123456789 -\n\t#ab\r")
	for trial := 0; trial < 3000; trial++ {
		n := rng.Intn(120)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		in, err := ParseInstance("fuzz", bytes.NewReader(buf))
		if err == nil {
			// Rarely the soup forms a valid instance; it must validate.
			if verr := ValidateInstance(in); verr != nil {
				t.Fatalf("parser accepted invalid instance from %q: %v", buf, verr)
			}
		}
		if _, err := ParseSolution(bytes.NewReader(buf), 10); err == nil {
			// Acceptable: structurally valid solutions can arise.
			continue
		}
	}
}

// TestValidateInstanceMatchesReference corrupts valid instances the ways
// ValidateInstance must catch (duplicate or out-of-range terminals, stale,
// reordered or extra back-references, unsorted groups) and requires the
// error the map-based reference reports.
func TestValidateInstanceMatchesReference(t *testing.T) {
	corrupt := []func(rng *rand.Rand, in *Instance){
		func(rng *rand.Rand, in *Instance) {
			n := &in.Nets[rng.Intn(len(in.Nets))]
			n.Terminals = append(n.Terminals, n.Terminals[rng.Intn(len(n.Terminals))])
		},
		func(rng *rand.Rand, in *Instance) {
			in.Nets[rng.Intn(len(in.Nets))].Terminals[0] = in.G.NumVertices() + rng.Intn(3) - 1
		},
		func(rng *rand.Rand, in *Instance) {
			n := &in.Nets[rng.Intn(len(in.Nets))]
			if len(n.Groups) > 1 {
				n.Groups[0], n.Groups[1] = n.Groups[1], n.Groups[0]
			} else {
				n.Groups = append(n.Groups, rng.Intn(len(in.Groups)+1))
			}
		},
		func(rng *rand.Rand, in *Instance) {
			if n := &in.Nets[rng.Intn(len(in.Nets))]; len(n.Groups) > 0 {
				n.Groups[len(n.Groups)-1]++
			}
		},
		func(rng *rand.Rand, in *Instance) {
			in.Nets[rng.Intn(len(in.Nets))].Groups = nil
		},
		func(rng *rand.Rand, in *Instance) {
			if len(in.Groups) > 0 {
				g := &in.Groups[rng.Intn(len(in.Groups))]
				g.Nets = append(g.Nets, g.Nets[0])
			}
		},
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomValidInstance(seed)
		for k := 1 + rng.Intn(2); k > 0; k-- {
			corrupt[rng.Intn(len(corrupt))](rng, in)
		}
		got, want := ValidateInstance(in), refValidateInstance(in)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: ValidateInstance = %v, reference %v", seed, got, want)
		}
	}
}
