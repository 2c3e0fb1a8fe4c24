package tdmroute_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"tdmroute"
	"tdmroute/internal/gen"
	"tdmroute/internal/par"
	"tdmroute/internal/tdm"
)

// solve runs a request through Run and fails the test on error.
func solve(t testing.TB, req tdmroute.Request) *tdmroute.Response {
	t.Helper()
	res, err := tdmroute.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func genInstance(t testing.TB, name string, scale float64) *tdmroute.Instance {
	t.Helper()
	cfg, err := gen.SuiteConfig(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveEndToEnd(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.005)
	res := solve(t, tdmroute.Request{Instance: in})
	if err := tdmroute.ValidateSolution(in, res.Solution); err != nil {
		t.Fatalf("invalid solution: %v", err)
	}
	gtr, _ := tdmroute.Evaluate(in, res.Solution)
	if gtr != res.Report.GTRMax {
		t.Errorf("reported GTRMax %d != evaluated %d", res.Report.GTRMax, gtr)
	}
	if res.Report.GTRMax > res.Report.GTRNoRef {
		t.Errorf("refinement worsened: %d > %d", res.Report.GTRMax, res.Report.GTRNoRef)
	}
	if float64(res.Report.GTRMax) < res.Report.LowerBound {
		t.Errorf("GTR %d below lower bound %g", res.Report.GTRMax, res.Report.LowerBound)
	}
	if res.Times.Route <= 0 || res.Times.LR <= 0 {
		t.Errorf("stage times not recorded: %+v", res.Times)
	}
	if res.Times.Total() != res.Times.Route+res.Times.LR+res.Times.LegalRefine {
		t.Error("Total() mismatch")
	}
}

func TestAssignTDMOnExternalTopology(t *testing.T) {
	in := genInstance(t, "synopsys02", 0.005)
	res := solve(t, tdmroute.Request{Instance: in})
	// Round-trip the topology through the text format, as the "+TA"
	// experiment does with the winners' output files.
	var buf bytes.Buffer
	if err := tdmroute.WriteRouting(&buf, res.Solution.Routes); err != nil {
		t.Fatal(err)
	}
	routes, err := tdmroute.ParseRouting(&buf, in.G.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.ValidateRouting(in, routes); err != nil {
		t.Fatal(err)
	}
	ta := solve(t, tdmroute.Request{Instance: in, Mode: tdmroute.ModeAssignOnly, Routing: routes})
	if err := tdmroute.ValidateSolution(in, ta.Solution); err != nil {
		t.Fatal(err)
	}
	// Same topology, same algorithm: the result must match ModeSingle's.
	if ta.Report.GTRMax != res.Report.GTRMax {
		t.Errorf("ModeAssignOnly GTRMax %d != ModeSingle's %d on identical topology", ta.Report.GTRMax, res.Report.GTRMax)
	}
}

func TestInstanceTextRoundTripThroughFacade(t *testing.T) {
	in := genInstance(t, "hidden01", 0.002)
	var buf bytes.Buffer
	if err := tdmroute.WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := tdmroute.ParseInstance("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.ValidateInstance(back); err != nil {
		t.Fatal(err)
	}
	a, b := tdmroute.ComputeStats(in), tdmroute.ComputeStats(back)
	a.Name, b.Name = "", ""
	if a != b {
		t.Errorf("stats changed across round trip:\n  %+v\n  %+v", a, b)
	}
}

func TestSolveDeterministic(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.003)
	r1 := solve(t, tdmroute.Request{Instance: in})
	r2 := solve(t, tdmroute.Request{Instance: in})
	if r1.Report.GTRMax != r2.Report.GTRMax || r1.Report.Iterations != r2.Report.Iterations {
		t.Errorf("nondeterministic: %+v vs %+v", r1.Report, r2.Report)
	}
}

func TestSolveTraceOption(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.002)
	count := 0
	solve(t, tdmroute.Request{Instance: in, Options: tdmroute.Options{
		TDM: tdmroute.TDMOptions{Trace: func(iter int, z, lb float64) {
			count++
			if lb > z*(1+1e-9) {
				t.Errorf("iter %d: lb %g above z %g", iter, lb, z)
			}
		}},
	}})
	if count == 0 {
		t.Error("trace never fired")
	}
}

func TestSolutionFileRoundTrip(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.002)
	res := solve(t, tdmroute.Request{Instance: in})
	var buf bytes.Buffer
	if err := tdmroute.WriteSolution(&buf, res.Solution); err != nil {
		t.Fatal(err)
	}
	if !strings.ContainsAny(buf.String(), "0123456789") {
		t.Fatal("empty solution file")
	}
	back, err := tdmroute.ParseSolution(&buf, in.G.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.ValidateSolution(in, back); err != nil {
		t.Fatal(err)
	}
	gtrA, _ := tdmroute.Evaluate(in, res.Solution)
	gtrB, _ := tdmroute.Evaluate(in, back)
	if gtrA != gtrB {
		t.Errorf("GTR changed across file round trip: %d vs %d", gtrA, gtrB)
	}
}

func TestVerifySchedulesOnSolvedInstance(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.003)
	res := solve(t, tdmroute.Request{Instance: in})
	verified, skipped, err := tdmroute.VerifySchedules(in, res.Solution)
	if err != nil {
		t.Fatalf("schedule verification failed: %v", err)
	}
	if verified == 0 {
		t.Fatal("no edges verified")
	}
	t.Logf("schedules verified on %d edges (%d skipped for frame length)", verified, skipped)
}

func TestVerifySchedulesDetectsOverload(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.002)
	res := solve(t, tdmroute.Request{Instance: in})
	// Corrupt: drop every large ratio to 2 regardless of the edge's load,
	// overloading the slot budget somewhere.
	sol := res.Solution
	broken := false
	for n := range sol.Assign.Ratios {
		for k := range sol.Assign.Ratios[n] {
			if sol.Assign.Ratios[n][k] > 4 {
				sol.Assign.Ratios[n][k] = 2
				broken = true
			}
		}
	}
	if !broken {
		t.Skip("instance too small to create an overload")
	}
	if _, _, err := tdmroute.VerifySchedules(in, sol); err == nil {
		// Possible if no edge actually overflowed; force-check with the
		// validator instead.
		if verr := tdmroute.ValidateSolution(in, sol); verr == nil {
			t.Skip("corruption did not overload any edge")
		}
	}
}

// TestGoldenDeterminism pins the exact objective of a fixed-seed benchmark;
// any change to routing order, LR arithmetic, or refinement shows up here
// as a diff rather than silently shifting results.
func TestGoldenDeterminism(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.005)
	res := solve(t, tdmroute.Request{Instance: in})
	r1 := solve(t, tdmroute.Request{Instance: in})
	if res.Report.GTRMax != r1.Report.GTRMax || res.Report.GTRNoRef != r1.Report.GTRNoRef ||
		res.Report.Iterations != r1.Report.Iterations {
		t.Fatalf("nondeterministic pipeline: %+v vs %+v", res.Report, r1.Report)
	}
	// Golden values for this seed/scale. If an intentional algorithm
	// change shifts them, update the constants alongside the change.
	// Last rotation: initial routing runs in waves at every worker count
	// (5-net waves at this instance's 342 nets) instead of one net at a
	// time when Workers is unset (was 58/62).
	const (
		goldenGTR   = 60
		goldenNoRef = 62
	)
	if res.Report.GTRMax != goldenGTR || res.Report.GTRNoRef != goldenNoRef {
		t.Errorf("golden drift: GTRMax=%d (want %d) GTRNoRef=%d (want %d)",
			res.Report.GTRMax, goldenGTR, res.Report.GTRNoRef, goldenNoRef)
	}
}

// TestRunLRRejectsEdgeOutOfRange pins the typed edge-range check: a route
// naming an edge outside the graph, too large or negative, is a caller
// error reported by tdm.RunLR, tdm.Assign, a reused tdm.Session and Run's
// ModeAssignOnly, not a contained index panic. A session that rejected a
// routing still solves the next one like a fresh session.
func TestRunLRRejectsEdgeOutOfRange(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.002)
	routes := solve(t, tdmroute.Request{Instance: in}).Solution.Routes
	numEdges := in.G.NumEdges()
	const n = 3
	opt := tdm.Options{MaxIter: 20}
	ctx := context.Background()
	for _, e := range []int{numEdges + 5, -1} {
		bad := routes.Clone()
		bad[n] = append(append([]int(nil), bad[n]...), e)
		want := fmt.Sprintf("tdm: net %d: edge %d out of range [0, %d)", n, e, numEdges)
		check := func(what string, err error) {
			t.Helper()
			var pe *par.PanicError
			if err == nil || errors.As(err, &pe) || !strings.Contains(err.Error(), want) {
				t.Errorf("edge %d: %s error %v, want %q", e, what, err, want)
			}
		}
		ratios, _, _, _, _, err := tdm.RunLR(ctx, in, bad, opt)
		if ratios != nil {
			t.Errorf("edge %d: RunLR returned ratios", e)
		}
		check("RunLR", err)
		_, _, err = tdm.Assign(ctx, in, bad, opt)
		check("Assign", err)
		_, err = tdmroute.Run(ctx, tdmroute.Request{Instance: in, Mode: tdmroute.ModeAssignOnly, Routing: bad})
		check("Run ModeAssignOnly", err)

		ses := tdm.NewSession(in)
		if _, _, _, _, _, err := ses.RunLR(ctx, routes, opt); err != nil {
			t.Fatal(err)
		}
		_, _, _, _, _, err = ses.RunLR(ctx, bad, opt)
		check("reused Session.RunLR", err)
		got, gz, _, _, _, err := ses.RunLR(ctx, routes, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wz, _, _, _, _ := tdm.RunLR(ctx, in, routes, opt)
		if math.Float64bits(gz) != math.Float64bits(wz) || fmt.Sprint(got) != fmt.Sprint(wantR) {
			t.Errorf("edge %d: session after a rejected routing: z %v, want %v", e, gz, wz)
		}
	}
}
