package problem

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"tdmroute/internal/graph"
)

// tinyInstance builds the 6-FPGA, 7-edge example of Fig. 1(a)-like shape:
//
//	0-1, 1-2, 2-3, 3-4, 4-5, 5-0, 1-4
//
// with three nets and two groups.
func tinyInstance() *Instance {
	g := graph.New(6, 7)
	g.AddEdge(0, 1) // e0
	g.AddEdge(1, 2) // e1
	g.AddEdge(2, 3) // e2
	g.AddEdge(3, 4) // e3
	g.AddEdge(4, 5) // e4
	g.AddEdge(5, 0) // e5
	g.AddEdge(1, 4) // e6
	in := &Instance{
		Name: "tiny",
		G:    g,
		Nets: []Net{
			{Terminals: []int{0, 2}},
			{Terminals: []int{1, 3, 5}},
			{Terminals: []int{2, 4}},
		},
		Groups: []Group{
			{Nets: []int{0, 1}},
			{Nets: []int{1, 2}},
		},
	}
	in.RebuildNetGroups()
	return in
}

const tinyText = `# a comment
6 7 3 2
0 1
1 2
2 3
3 4
4 5
5 0
1 4

2 0 2
3 1 3 5
2 2 4
2 0 1   # trailing comment
2 1 2
`

func TestParseInstanceBasic(t *testing.T) {
	in, err := ParseInstance("tiny", strings.NewReader(tinyText))
	if err != nil {
		t.Fatal(err)
	}
	if in.G.NumVertices() != 6 || in.G.NumEdges() != 7 {
		t.Fatalf("graph %dx%d", in.G.NumVertices(), in.G.NumEdges())
	}
	if len(in.Nets) != 3 || len(in.Groups) != 2 {
		t.Fatalf("nets=%d groups=%d", len(in.Nets), len(in.Groups))
	}
	if got := in.Nets[1].Terminals; len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("net 1 terminals = %v", got)
	}
	if got := in.Nets[1].Groups; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("net 1 groups = %v", got)
	}
	if got := in.Nets[0].Groups; len(got) != 1 || got[0] != 0 {
		t.Errorf("net 0 groups = %v", got)
	}
	if err := ValidateInstance(in); err != nil {
		t.Errorf("ValidateInstance: %v", err)
	}
}

func TestParseInstanceRejectsDuplicateTerminals(t *testing.T) {
	text := "2 1 1 1\n0 1\n3 0 1 0\n1 0\n"
	_, err := ParseInstance("dup", strings.NewReader(text))
	if err == nil {
		t.Fatal("duplicate terminal accepted")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *ParseError", err)
	}
	if pe.Line != 3 || pe.Token != "0" {
		t.Errorf("ParseError located at line %d token %q, want line 3 token \"0\"", pe.Line, pe.Token)
	}
}

func TestParseInstanceRejectsDuplicateGroupMembers(t *testing.T) {
	text := "3 2 2 1\n0 1\n1 2\n2 0 1\n2 1 2\n3 1 0 1\n"
	_, err := ParseInstance("dupgroup", strings.NewReader(text))
	if err == nil {
		t.Fatal("duplicate group member accepted")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *ParseError", err)
	}
	if pe.Line != 6 || pe.Token != "1" {
		t.Errorf("ParseError located at line %d token %q, want line 6 token \"1\"", pe.Line, pe.Token)
	}
}

func TestParseErrorsAreTyped(t *testing.T) {
	// Every text-parser failure must surface as a *ParseError with a
	// plausible location, whatever the corruption.
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"badinteger", "2 x 0 0\n"},
		{"truncated", "2 1 1 1\n0 1\n2 0 1\n"},
		{"selfloop", "2 1 0 0\n# comment\n1 1\n"},
	}
	for _, c := range cases {
		_, err := ParseInstance(c.name, strings.NewReader(c.text))
		if err == nil {
			t.Errorf("%s: expected parse error", c.name)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not a *ParseError", c.name, err)
			continue
		}
		if pe.Line < 1 {
			t.Errorf("%s: ParseError has no line: %+v", c.name, pe)
		}
	}
}

func TestParseInstanceErrors(t *testing.T) {
	cases := []struct{ name, text string }{
		{"empty", ""},
		{"badheader", "2 x 0 0\n"},
		{"negativecounts", "-1 0 0 0\n"},
		{"edgerange", "2 1 0 0\n0 5\n"},
		{"selfloop", "2 1 0 0\n1 1\n"},
		{"nettermcount", "2 1 1 0\n0 1\n0\n"},
		{"nettermrange", "2 1 1 0\n0 1\n1 9\n"},
		{"groupempty", "2 1 1 1\n0 1\n2 0 1\n0\n"},
		{"groupnetrange", "2 1 1 1\n0 1\n2 0 1\n1 4\n"},
		{"truncated", "2 1 1 1\n0 1\n2 0 1\n"},
	}
	for _, c := range cases {
		if _, err := ParseInstance(c.name, strings.NewReader(c.text)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestInstanceRoundTrip(t *testing.T) {
	in := tinyInstance()
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ParseInstance("tiny", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.G.NumEdges() != in.G.NumEdges() || len(back.Nets) != len(in.Nets) || len(back.Groups) != len(in.Groups) {
		t.Fatal("round-trip size mismatch")
	}
	for i := range in.Nets {
		a, b := in.Nets[i].Terminals, back.Nets[i].Terminals
		if len(a) != len(b) {
			t.Fatalf("net %d terminals differ", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("net %d terminal %d differs", i, j)
			}
		}
	}
	for gi := range in.Groups {
		a, b := in.Groups[gi].Nets, back.Groups[gi].Nets
		if len(a) != len(b) {
			t.Fatalf("group %d differs", gi)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("group %d member %d differs", gi, j)
			}
		}
	}
}

func TestSolutionRoundTrip(t *testing.T) {
	sol := &Solution{
		Routes: Routing{{0, 1}, {1, 6, 4}, {}},
		Assign: Assignment{Ratios: [][]int64{{2, 4}, {6, 2, 8}, {}}},
	}
	var buf bytes.Buffer
	if err := WriteSolution(&buf, sol); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSolution(&buf, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Routes) != 3 {
		t.Fatalf("nets = %d", len(back.Routes))
	}
	for n := range sol.Routes {
		if len(back.Routes[n]) != len(sol.Routes[n]) {
			t.Fatalf("net %d route len", n)
		}
		for k := range sol.Routes[n] {
			if back.Routes[n][k] != sol.Routes[n][k] || back.Assign.Ratios[n][k] != sol.Assign.Ratios[n][k] {
				t.Fatalf("net %d pos %d mismatch", n, k)
			}
		}
	}
}

func TestParseSolutionEdgeRange(t *testing.T) {
	if _, err := ParseSolution(strings.NewReader("1\n1 9 2\n"), 5); err == nil {
		t.Error("expected out-of-range edge error")
	}
}

func TestParseSolutionRejectsDuplicateEdges(t *testing.T) {
	_, err := ParseSolution(strings.NewReader("1\n2 3 2 3 4\n"), 5)
	if err == nil {
		t.Fatal("duplicate routed edge accepted")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *ParseError", err)
	}
	if pe.Line != 2 || pe.Token != "3" {
		t.Errorf("ParseError located at line %d token %q, want line 2 token \"3\"", pe.Line, pe.Token)
	}
}

func TestParseSolutionRejectsNegativeRatio(t *testing.T) {
	_, err := ParseSolution(strings.NewReader("1\n1 0 -2\n"), 5)
	if err == nil {
		t.Fatal("negative ratio accepted")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *ParseError", err)
	}
	if pe.Token != "-2" {
		t.Errorf("ParseError token %q, want \"-2\"", pe.Token)
	}
	// Ratio zero is the WriteRouting topology placeholder and stays legal.
	if _, err := ParseSolution(strings.NewReader("1\n1 0 0\n"), 5); err != nil {
		t.Errorf("zero ratio rejected: %v", err)
	}
}

func TestRoutingRoundTrip(t *testing.T) {
	routes := Routing{{0, 2}, {}, {3}}
	var buf bytes.Buffer
	if err := WriteRouting(&buf, routes); err != nil {
		t.Fatal(err)
	}
	back, err := ParseRouting(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 || len(back[0]) != 2 || back[2][0] != 3 {
		t.Errorf("routing round trip = %v", back)
	}
	buf.Reset()
	if err := WriteRouting(&buf, routes); err != nil {
		t.Fatal(err)
	}
	if want := "3\n2 0 0 2 0\n0\n1 3 0\n"; buf.String() != want {
		t.Errorf("WriteRouting wrote %q, want %q", buf.String(), want)
	}
}

func TestEdgeLoads(t *testing.T) {
	routes := Routing{{0, 1}, {1}, {}}
	loads := EdgeLoads(3, routes)
	if len(loads[0]) != 1 || loads[0][0].Net != 0 || loads[0][0].Pos != 0 {
		t.Errorf("loads[0] = %v", loads[0])
	}
	if len(loads[1]) != 2 || loads[1][0].Net != 0 || loads[1][1].Net != 1 {
		t.Errorf("loads[1] = %v", loads[1])
	}
	if len(loads[2]) != 0 {
		t.Errorf("loads[2] = %v", loads[2])
	}
}

func TestRoutingCloneIndependent(t *testing.T) {
	r := Routing{{1, 2}, {3}}
	c := r.Clone()
	c[0][0] = 99
	if r[0][0] == 99 {
		t.Error("Clone shares storage")
	}
	if r.NumRoutedEdges() != 3 {
		t.Errorf("NumRoutedEdges = %d", r.NumRoutedEdges())
	}
}

func TestValidateRouting(t *testing.T) {
	in := tinyInstance()
	good := Routing{
		{0, 1},       // net 0: 0-1-2
		{1, 2, 3, 4}, // net 1: 1-2-3-4-5 covers {1,3,5}
		{2, 3},       // net 2: 2-3-4
	}
	if err := ValidateRouting(in, good); err != nil {
		t.Fatalf("good routing rejected: %v", err)
	}

	cases := []struct {
		name string
		r    Routing
	}{
		{"wrongcount", Routing{{0}}},
		{"unrouted", Routing{{}, {1, 2, 3, 4}, {2, 3}}},
		{"cycle", Routing{{0, 1, 2, 3, 4, 5, 6}, {1, 2, 3, 4}, {2, 3}}},
		{"disconnectedterm", Routing{{0, 1}, {1, 2}, {2, 3}}}, // net1 misses 5
		{"duplicateedge", Routing{{0, 0}, {1, 2, 3, 4}, {2, 3}}},
		{"edgerange", Routing{{0, 99}, {1, 2, 3, 4}, {2, 3}}},
	}
	for _, c := range cases {
		if err := ValidateRouting(in, c.r); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestValidateSolution(t *testing.T) {
	in := tinyInstance()
	routes := Routing{{0, 1}, {1, 2, 3, 4}, {2, 3}}
	mk := func(vals ...[]int64) Assignment { return Assignment{Ratios: vals} }

	good := &Solution{Routes: routes, Assign: mk([]int64{4, 4}, []int64{4, 4, 4, 4}, []int64{4, 4})}
	if err := ValidateSolution(in, good); err != nil {
		t.Fatalf("good solution rejected: %v", err)
	}

	odd := &Solution{Routes: routes, Assign: mk([]int64{3, 4}, []int64{4, 4, 4, 4}, []int64{4, 4})}
	if err := ValidateSolution(in, odd); err == nil {
		t.Error("odd ratio accepted")
	}
	zero := &Solution{Routes: routes, Assign: mk([]int64{0, 4}, []int64{4, 4, 4, 4}, []int64{4, 4})}
	if err := ValidateSolution(in, zero); err == nil {
		t.Error("zero ratio accepted")
	}
	// Edge 1 carries nets 0 and 1; both at ratio 2 sums to exactly 1: legal.
	exact := &Solution{Routes: routes, Assign: mk([]int64{2, 2}, []int64{2, 2, 2, 2}, []int64{2, 2})}
	if err := ValidateSolution(in, exact); err != nil {
		t.Errorf("reciprocal sum exactly 1 rejected: %v", err)
	}
	// Edge 2 carries nets 1 and 2; 1/2 + 1/2 = 1 fine, but make one of
	// three nets share edge 1... build an overload: route net 2 via edge 1
	// too (1-2 then 2-... no—simpler: three nets on edge 1 at ratio 2).
	over := &Solution{
		Routes: Routing{{0, 1}, {1, 2, 3, 4}, {1, 6}}, // net2: 2-1-4, uses edge1 too
		Assign: mk([]int64{2, 2}, []int64{2, 2, 2, 2}, []int64{2, 2}),
	}
	if err := ValidateSolution(in, over); err == nil {
		t.Error("reciprocal sum 1.5 accepted")
	}
	short := &Solution{Routes: routes, Assign: mk([]int64{4}, []int64{4, 4, 4, 4}, []int64{4, 4})}
	if err := ValidateSolution(in, short); err == nil {
		t.Error("ratio/edge length mismatch accepted")
	}
}

func TestValidateInstanceErrors(t *testing.T) {
	in := tinyInstance()
	in.Nets[0].Terminals = []int{0, 0}
	if err := ValidateInstance(in); err == nil {
		t.Error("duplicate terminals accepted")
	}
	in = tinyInstance()
	in.Groups[0].Nets = []int{1, 0}
	if err := ValidateInstance(in); err == nil {
		t.Error("unsorted group accepted")
	}
	in = tinyInstance()
	in.Nets[2].Groups = nil
	if err := ValidateInstance(in); err == nil {
		t.Error("stale back-references accepted")
	}
	// Disconnected graph with a multi-FPGA net.
	g := graph.New(3, 1)
	g.AddEdge(0, 1)
	bad := &Instance{G: g, Nets: []Net{{Terminals: []int{0, 2}}}}
	if err := ValidateInstance(bad); err == nil {
		t.Error("disconnected graph accepted")
	}
}

func TestComputeStats(t *testing.T) {
	in := tinyInstance()
	s := ComputeStats(in)
	if s.FPGAs != 6 || s.Edges != 7 || s.Nets != 3 || s.NetGroups != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.TwoPinNets != 2 || s.MaxTerminals != 3 {
		t.Errorf("pin stats = %+v", s)
	}
	if s.MaxGroupSize != 2 || s.AvgGroupSize != 2 {
		t.Errorf("group stats = %+v", s)
	}
	if s.UngroupedNet != 0 {
		t.Errorf("ungrouped = %d", s.UngroupedNet)
	}
	if !strings.Contains(s.String(), "Nets=3") {
		t.Errorf("String() = %q", s.String())
	}
}

func TestReciprocalSumExactCheck(t *testing.T) {
	// 1/2 + 1/4 + 1/4 == 1 exactly.
	ratios := [][]int64{{2}, {4}, {4}}
	ls := []EdgeLoad{{0, 0}, {1, 0}, {2, 0}}
	if !reciprocalSumAtMostOne(ls, ratios) {
		t.Error("sum exactly 1 rejected")
	}
	ratios = [][]int64{{2}, {4}, {4}, {1 << 20}}
	ls = append(ls, EdgeLoad{3, 0})
	if reciprocalSumAtMostOne(ls, ratios) {
		t.Error("sum slightly above 1 accepted")
	}
}
