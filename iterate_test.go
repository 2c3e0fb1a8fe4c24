package tdmroute_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"tdmroute"
)

func TestSolveIterativeNeverWorse(t *testing.T) {
	for _, bench := range []string{"synopsys01", "synopsys02", "hidden01"} {
		in := genInstance(t, bench, 0.005)
		res := solve(t, tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 4})
		if err := tdmroute.ValidateSolution(in, res.Solution); err != nil {
			t.Fatalf("%s: invalid: %v", bench, err)
		}
		if res.Report.GTRMax > res.InitialGTR {
			t.Errorf("%s: iteration worsened GTR: %d -> %d", bench, res.InitialGTR, res.Report.GTRMax)
		}
		gtr, _ := tdmroute.Evaluate(in, res.Solution)
		if gtr != res.Report.GTRMax {
			t.Errorf("%s: report %d != evaluated %d", bench, res.Report.GTRMax, gtr)
		}
		if res.RoundsRun < 1 || res.RoundsRun > 4 || res.RoundsKept > res.RoundsRun {
			t.Errorf("%s: %d/%d rounds kept/run, want 1 to 4 run of 4 requested", bench, res.RoundsKept, res.RoundsRun)
		}
		t.Logf("%s: initial %d -> iterated %d (%d/%d rounds kept)",
			bench, res.InitialGTR, res.Report.GTRMax, res.RoundsKept, res.RoundsRun)
	}
}

func TestSolveIterativeImprovesSomewhere(t *testing.T) {
	// Across several benchmarks/seeds, at least one feedback round should
	// land an improvement; otherwise the extension is dead code.
	improved := false
	for _, bench := range []string{"synopsys01", "synopsys02", "synopsys03", "hidden01"} {
		in := genInstance(t, bench, 0.004)
		res := solve(t, tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 5})
		if res.RoundsKept > 0 && res.Report.GTRMax < res.InitialGTR {
			improved = true
		}
	}
	if !improved {
		t.Log("no benchmark improved under iteration at this scale (acceptable but worth watching)")
	}
}

func TestSolveIterativeDeterministic(t *testing.T) {
	in := genInstance(t, "synopsys01", 0.003)
	a := solve(t, tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative})
	b := solve(t, tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative})
	if a.Report.GTRMax != b.Report.GTRMax || a.RoundsKept != b.RoundsKept {
		t.Errorf("nondeterministic: %+v vs %+v", a.Report, b.Report)
	}
	var wa, wb bytes.Buffer
	if err := tdmroute.WriteSolution(&wa, a.Solution); err != nil {
		t.Fatal(err)
	}
	if err := tdmroute.WriteSolution(&wb, b.Solution); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
		t.Error("nondeterministic: the two solutions' bytes differ")
	}
}

func TestIterativeStageTimesAccounted(t *testing.T) {
	// Regression test for two timing bugs: feedbackRound charged the whole
	// tdm.Assign (LR + legalize + refine) to Times.LR, and the λ-recapture
	// run was not timed at all. Every stage must show work, and the
	// per-stage sum must stay within the wall clock of the entire solve.
	in := genInstance(t, "synopsys01", 0.005)
	start := time.Now()
	res, err := tdmroute.Run(context.Background(), tdmroute.Request{Instance: in, Mode: tdmroute.ModeIterative, Rounds: 4})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if res.Times.Route <= 0 {
		t.Errorf("Times.Route not accounted: %v", res.Times.Route)
	}
	if res.Times.LR <= 0 {
		t.Errorf("Times.LR not accounted: %v", res.Times.LR)
	}
	if res.Times.LegalRefine <= 0 {
		t.Errorf("Times.LegalRefine not accounted: %v", res.Times.LegalRefine)
	}
	if total := res.Times.Total(); total > wall {
		t.Errorf("stage times over-account: total %v > wall %v", total, wall)
	}
	t.Logf("wall=%v route=%v lr=%v legal+refine=%v",
		wall, res.Times.Route, res.Times.LR, res.Times.LegalRefine)
}

func TestWarmStartConvergesFaster(t *testing.T) {
	// Re-running the assignment on the same topology warm-started from
	// the converged multipliers must converge (almost) immediately.
	in := genInstance(t, "synopsys02", 0.01)
	res := solve(t, tdmroute.Request{Instance: in})
	assign := func(topt tdmroute.TDMOptions) tdmroute.Report {
		return solve(t, tdmroute.Request{
			Instance: in,
			Mode:     tdmroute.ModeAssignOnly,
			Options:  tdmroute.Options{TDM: topt},
			Routing:  res.Solution.Routes,
		}).Report
	}
	var lambda []float64
	cold := assign(tdmroute.TDMOptions{CaptureLambda: func(l []float64) { lambda = l }})
	if lambda == nil {
		t.Fatal("CaptureLambda not called")
	}
	rewarm := assign(tdmroute.TDMOptions{WarmLambda: lambda})
	if rewarm.Iterations > cold.Iterations {
		t.Errorf("warm start took more iterations: %d vs cold %d", rewarm.Iterations, cold.Iterations)
	}
	t.Logf("iterations: cold=%d warm=%d", cold.Iterations, rewarm.Iterations)
}

// TestCaptureLambdaFiresPerLRSolve pins that Options.TDM.CaptureLambda sees
// every relaxation a solve runs: the base LR and each feedback round's LR in
// ModeIterative, and the warm-started LR of a ModeDelta solve, which reports
// to the delta request's callback rather than the base request's.
func TestCaptureLambdaFiresPerLRSolve(t *testing.T) {
	for _, bench := range []string{"synopsys01", "synopsys02", "synopsys04"} {
		in := genInstance(t, bench, 0.004)
		var baseCalls, deltaCalls int
		base := solve(t, tdmroute.Request{
			Instance: in,
			Mode:     tdmroute.ModeIterative,
			Rounds:   3,
			Retain:   true,
			Options:  tdmroute.Options{TDM: tdmroute.TDMOptions{CaptureLambda: func([]float64) { baseCalls++ }}},
		})
		if base.RoundsRun < 1 {
			t.Fatalf("%s: no feedback round ran; the test needs at least one", bench)
		}
		if baseCalls != 1+base.RoundsRun {
			t.Errorf("%s: ModeIterative with %d rounds fired CaptureLambda %d times, want %d",
				bench, base.RoundsRun, baseCalls, 1+base.RoundsRun)
		}

		baseCalls = 0
		solve(t, tdmroute.Request{
			Mode:    tdmroute.ModeDelta,
			Base:    base.Warm,
			Delta:   &tdmroute.Delta{RemoveNets: []int{0}},
			Options: tdmroute.Options{TDM: tdmroute.TDMOptions{CaptureLambda: func([]float64) { deltaCalls++ }}},
		})
		if deltaCalls != 1 || baseCalls != 0 {
			t.Errorf("%s: ModeDelta fired the delta callback %d times and the base callback %d times, want 1 and 0",
				bench, deltaCalls, baseCalls)
		}
	}
}
